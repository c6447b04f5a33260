package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"macrochip/internal/core"
	"macrochip/internal/expcache"
	"macrochip/internal/harness"
	"macrochip/internal/networks"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
)

// perLayerMetrics lists every metric a traced run reports, with its unit.
// A layer the workload does not reach reports 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"sim.queue_depth_mean", "events"},
	{"sim.queue_depth_max", "events"},
	{"sim.hold_ns_per_event", "ns"},
	{"networks.build_ms", "ms"},
	{"networks.injects", "count"},
	{"networks.inject_ns", "ns"},
	{"networks.model_ns_per_event", "ns"},
	{"cell.fixed_ms", "ms"},
	{"cell.ns_per_event", "ns"},
	{"cell.loadpoint.ns_per_event", "ns"},
	{"cell.loadpoint.allocs_per_event", "count"},
	{"cell.loadpoint.alloc_bytes_per_event", "B"},
	{"cell.loadpoint.ms_p50", "ms"},
	{"cell.loadpoint.ms_p99", "ms"},
	{"cell.benchcell.ns_per_event", "ns"},
	{"cell.benchcell.allocs_per_event", "count"},
	{"cell.benchcell.alloc_bytes_per_event", "B"},
	{"cell.benchcell.ms_p50", "ms"},
	{"cell.benchcell.ms_p99", "ms"},
	{"cell.inference.ns_per_event", "ns"},
	{"cell.inference.allocs_per_event", "count"},
	{"cell.inference.alloc_bytes_per_event", "B"},
	{"cell.inference.ms_p50", "ms"},
	{"cell.inference.ms_p99", "ms"},
	{"cell.self_s", "s"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runner.busy_frac", "ratio"},
	{"runner.tail_s", "s"},
	{"runner.self_s", "s"},
	{"expcache.hits", "count"},
	{"expcache.mem_hits", "count"},
	{"expcache.misses", "count"},
	{"expcache.joined", "count"},
	{"expcache.bytes_written", "B"},
	{"expcache.hit_us_p50_hot", "us"},
	{"expcache.hit_us_p99_hot", "us"},
	{"expcache.hit_us_p50_disk", "us"},
	{"expcache.hit_us_p99_disk", "us"},
	{"expcache.put_us", "us"},
	{"expcache.self_s", "s"},
	{"dist.dispatched", "count"},
	{"dist.completed", "count"},
	{"dist.retried", "count"},
	{"dist.local_fallback", "count"},
	{"dist.out_of_order", "count"},
	{"dist.worker_busy_frac", "ratio"},
	{"dist.tax_ms_per_cell", "ms"},
	{"dist.handshake_ms", "ms"},
	{"server.submit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.run_ms_p99", "ms"},
	{"server.fetch_ms", "ms"},
	{"server.rejects", "count"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
}

// runTraced is the traced run. The workload is traced first; then, for
// every layer it does not reach, a small ladder workload supplies that
// layer's figures (see ladder.go); then come the serial per-kind cell
// sample and the layer probes.
func runTraced(w scenario, o options) (result, error) {
	lm := map[string]float64{}
	tr := newTracer()
	ref, traced, verr, err := traceScenario(w, o, tr, lm)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("traced %s seed %d: untraced unit %.3fs, traced unit %.3fs\n", o.workload, o.seed, ref.wall, traced.wall)
	cells := w.cells()
	for _, step := range ladder(o) {
		if lm[step.probe] != 0 {
			continue
		}
		got := map[string]float64{}
		_, _, lerr, err := traceScenario(step.make(), o, tr, got)
		if err == nil {
			err = lerr
		}
		if err != nil {
			verr = errors.Join(verr, fmt.Errorf("ladder %s: %w", step.prefix, err))
			continue
		}
		for k, v := range got {
			if step.fills(k) && lm[k] == 0 {
				lm[k] = v
			}
		}
		fmt.Printf("  %s* from the %s ladder workload\n", step.prefix, step.name)
	}
	spansPath := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(spansPath); err != nil {
		return result{}, err
	}
	if err := sampleCells(append(cells, ladderCells(cells, o.seed)...), o.seed, lm); err != nil {
		verr = errors.Join(verr, err)
	}
	probeLayers(lm)

	res := result{Correct: verr == nil, Attempted: ref.attempted + traced.attempted, Metrics: map[string]metric{}}
	res.Failed = ref.failed + traced.failed
	if verr != nil {
		res.Failed = res.Attempted
		fmt.Printf("verification FAILED: %v\n", verr)
	}
	for _, m := range perLayerMetrics {
		v := lm[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	fmt.Printf("spans in %s\n", spansPath)
	return res, nil
}

// traceScenario sets w up, runs one untraced reference unit and one traced
// unit into tr, verifies both, and stores the layer figures in lm. err is
// a failure to run at all; verr a failed check.
func traceScenario(w scenario, o options, tr *tracer, lm map[string]float64) (ref, traced unitResult, verr, err error) {
	if err := w.setup(); err != nil {
		return ref, traced, nil, fmt.Errorf("setup: %w", err)
	}
	defer w.teardown()

	gc0 := gcCPU()
	ref = measureUnits(w, 0)[0]
	gc1 := gcCPU()
	if gc1.total > gc0.total {
		lm["runtime.gc_cpu_frac"] = (gc1.gc - gc0.gc) / (gc1.total - gc0.total)
	}
	c, prewarmed := w.resultCache()
	cacheLayer(c, prewarmed, o, lm)

	first := len(tr.spans)
	t1 := time.Now()
	traced = w.tracedUnit(tr, lm)
	traced.wall = time.Since(t1).Seconds()
	lm["trace.overhead_s"] = traced.wall - ref.wall
	lm["trace.spans"] = float64(len(tr.spans) - first)
	self := selfSeconds(tr.spans[first:])
	lm["runner.self_s"] = self["study"]
	lm["expcache.self_s"] = self["cell"]
	lm["cell.self_s"] = self["sim"]
	for _, name := range sortedKeys(self) {
		fmt.Printf("  self time %-14s %.3fs\n", name, self[name])
	}

	verr = w.verify([]unitResult{ref})
	if d, ok := w.(*distSweep); ok {
		d.layer(ref, lm)
	}
	if verr == nil && !bytes.Equal(traced.output, ref.output) {
		verr = fmt.Errorf("traced output differs from the untraced unit's")
	}
	if verr == nil && traced.failed+ref.failed > 0 {
		verr = fmt.Errorf("%d operations failed", traced.failed+ref.failed)
	}
	return ref, traced, verr, nil
}

// gcSample is a reading of the runtime's CPU accounting.
type gcSample struct{ gc, total float64 }

func gcCPU() gcSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out gcSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.total = s[1].Value.Float64()
	}
	return out
}

// poolAcc accumulates what traced fan-outs observe across a unit.
type poolAcc struct {
	mu             sync.Mutex
	busy, capacity float64 // cell seconds; workers × wall seconds
	tail           float64 // seconds from the first idle worker to the end
	cellMS         map[string][]float64
	firstIdle      time.Time
}

// report stores the runner figures and cell percentiles.
func (a *poolAcc) report(lm map[string]float64) {
	if a.capacity > 0 {
		lm["runner.busy_frac"] = a.busy / a.capacity
	}
	lm["runner.tail_s"] = a.tail
	cellPercentiles(a.cellMS, lm)
}

// tracedPool runs cells on workers goroutines the way the harness Runner
// fans a study out: each worker pulls the next index, and each cell runs
// through expcache.Do around its exported entry point. Spans: one "study"
// root, a "cell" per cache lookup-or-compute, a "sim" per simulation.
func tracedPool(tr *tracer, cells []cell, workers int, cache *expcache.Cache, seed int64, ps *poolAcc) []any {
	out := make([]any, len(cells))
	root, trace := tr.id(), tr.id()
	if ps.cellMS == nil {
		ps.cellMS = map[string][]float64{}
	}
	ps.firstIdle = time.Time{}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					ps.mu.Lock()
					if now := time.Now(); ps.firstIdle.IsZero() || now.Before(ps.firstIdle) {
						ps.firstIdle = now
					}
					ps.mu.Unlock()
					return
				}
				c := cells[i]
				cid := tr.id()
				key := expcache.NewKey("perfbench-trace").Int("seed", seed).Str("kind", c.kind).Int("index", int64(i)).Sum()
				c0 := time.Now()
				out[i] = cachedCell(cache, key, c, func(s, e time.Time) { tr.add(0, cid, trace, "sim", s, e) })
				c1 := time.Now()
				tr.add(cid, root, trace, "cell", c0, c1)
				ps.mu.Lock()
				ps.busy += c1.Sub(c0).Seconds()
				ps.cellMS[c.kind] = append(ps.cellMS[c.kind], ms(c1.Sub(c0)))
				ps.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	tr.add(root, 0, trace, "study", start, end)
	ps.capacity += float64(workers) * end.Sub(start).Seconds()
	ps.tail += end.Sub(ps.firstIdle).Seconds()
	return out
}

// cachedCell is one cell through expcache.Do, with the simulation span
// reported to simSpan.
func cachedCell(cache *expcache.Cache, key expcache.Key, c cell, simSpan func(s, e time.Time)) any {
	timed := func(fn func()) {
		s := time.Now()
		fn()
		simSpan(s, time.Now())
	}
	switch c.kind {
	case kindLoadPoint:
		return expcache.Do(cache, key, func() (pt harness.LoadPoint) {
			timed(func() { pt = harness.RunLoadPoint(c.lp) })
			return pt
		})
	case kindBenchCell:
		return expcache.Do(cache, key, func() (r harness.BenchResult) {
			timed(func() { r = harness.RunBenchmark(c.bench, c.net, c.params, c.seed) })
			return r
		})
	default:
		return expcache.Do(cache, key, func() (pt harness.InferencePoint) {
			timed(func() {
				var err error
				if pt, err = harness.RunInferencePoint(c.inf, c.net, c.graph, c.batch, c.seqLn); err != nil {
					panic(err)
				}
			})
			return pt
		})
	}
}

// cacheLayer reads the unit's cache counters, times hot and disk hits on
// the unit's own keys through a fresh handle on its directory, and times
// publishing them into a scratch cache. A nil cache reports nothing.
func cacheLayer(c *expcache.Cache, prewarmed int, o options, lm map[string]float64) {
	if c == nil {
		return
	}
	st := c.Stats()
	// Joined single-flight waiters count as hits without touching either
	// tier. Disk hits are not counted separately, but each pre-warmed entry
	// is read from disk at most once before the hot tier holds it.
	joined := int64(st.Hits) - int64(st.MemHits) - int64(st.RemoteHits) - int64(prewarmed)
	lm["expcache.joined"] = float64(max(joined, 0))
	lm["expcache.hits"] = float64(st.Hits)
	lm["expcache.mem_hits"] = float64(st.MemHits)
	lm["expcache.misses"] = float64(st.Misses)
	lm["expcache.bytes_written"] = float64(st.BytesWritten)
	entries, _ := os.ReadDir(c.Dir())
	fresh, err := expcache.Open(c.Dir())
	if err != nil {
		return
	}
	scratch, err := expcache.Open(filepath.Join(o.workDir, "put-probe"))
	if err != nil {
		return
	}
	var disk, hot, put []float64
	for _, e := range entries {
		k, err := expcache.ParseKey(strings.TrimSuffix(e.Name(), ".json"))
		if err != nil {
			continue
		}
		t0 := time.Now()
		data, ok := fresh.EntryBytes(k)
		t1 := time.Now()
		if !ok {
			continue
		}
		fresh.EntryBytes(k)
		t2 := time.Now()
		if scratch.PublishEntry(k, data) != nil {
			continue
		}
		t3 := time.Now()
		disk = append(disk, us(t1.Sub(t0)))
		hot = append(hot, us(t2.Sub(t1)))
		put = append(put, us(t3.Sub(t2)))
	}
	lm["expcache.hit_us_p50_disk"] = median(disk)
	lm["expcache.hit_us_p99_disk"], _ = tail99(disk)
	lm["expcache.hit_us_p50_hot"] = median(hot)
	lm["expcache.hit_us_p99_hot"], _ = tail99(hot)
	lm["expcache.put_us"] = median(put)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// sampleCells runs a seeded sample of each kind's cells serially, twice:
// plain through the exported entry point for ns, allocations and bytes
// per event, then probed on a benchmark-built engine for queue depth and
// injection counts (which must not change the result).
func sampleCells(cells []cell, seed int64, lm map[string]float64) error {
	const perKind, budget = 12, 2 * time.Second
	rng := sim.NewRNG(seed)
	byKind := map[string][]cell{}
	for _, i := range rng.Perm(len(cells)) {
		c := cells[i]
		if len(byKind[c.kind]) < perKind {
			byKind[c.kind] = append(byKind[c.kind], c)
		}
	}
	var allNS, allEvents float64
	var pr probe
	for _, kind := range []string{kindLoadPoint, kindBenchCell, kindInference} {
		var ns, allocs, bytes, events float64
		var durs []float64
		start := time.Now()
		for _, c := range byKind[kind] {
			if time.Since(start) > budget {
				break
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			plain, ev, err := runCell(c, nil)
			d := time.Since(t0)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return err
			}
			ns += float64(d)
			events += float64(ev)
			allocs += float64(m1.Mallocs - m0.Mallocs)
			bytes += float64(m1.TotalAlloc - m0.TotalAlloc)
			durs = append(durs, ms(d))
			if kind != kindInference {
				probed, _, err := runCell(c, &pr)
				if err != nil {
					return err
				}
				if !sameJSON(plain, probed) {
					return fmt.Errorf("%s cell differs between the plain and the probed engine", kind)
				}
			}
		}
		if events == 0 {
			continue
		}
		p := "cell." + kind + "."
		lm[p+"ns_per_event"] = ns / events
		lm[p+"allocs_per_event"] = allocs / events
		lm[p+"alloc_bytes_per_event"] = bytes / events
		if lm[p+"ms_p50"] == 0 {
			cellPercentiles(map[string][]float64{kind: durs}, lm)
		}
		allNS += ns
		allEvents += events
	}
	if pr.depthN > 0 {
		lm["sim.queue_depth_mean"] = float64(pr.depthSum) / float64(pr.depthN)
		lm["sim.queue_depth_max"] = float64(pr.depthMax)
	}
	if pr.injects > 0 {
		lm["networks.injects"] = float64(pr.injects)
		lm["networks.inject_ns"] = float64(pr.injectNS) / float64(pr.injects)
	}
	if allEvents > 0 {
		lm["cell.ns_per_event"] = allNS / allEvents
	}
	return nil
}

// cellPercentiles reports per-kind cell time percentiles.
func cellPercentiles(cellMS map[string][]float64, lm map[string]float64) {
	for kind, durs := range cellMS {
		lm["cell."+kind+".ms_p50"] = median(durs)
		lm["cell."+kind+".ms_p99"], _ = tail99(durs)
	}
}

// probeLayers runs the layer probes: the bare-engine hold model at the
// measured queue depth, network construction, and an empty-window cell.
func probeLayers(lm map[string]float64) {
	depth := int(math.Round(lm["sim.queue_depth_mean"]))
	if depth < 1 {
		depth = 1
	}
	lm["sim.hold_ns_per_event"] = holdNSPerEvent(depth, 1_000_000)
	if lm["cell.ns_per_event"] > 0 {
		lm["networks.model_ns_per_event"] = lm["cell.ns_per_event"] - lm["sim.hold_ns_per_event"]
	}
	lm["networks.build_ms"] = buildMS(10)
	lm["cell.fixed_ms"] = fixedCellMS(10)
}

// holdEvent reschedules itself once per dispatch: the classic hold model,
// which keeps the queue at a fixed depth while timing schedule+dispatch.
type holdEvent struct {
	delays []sim.Duration
	i      int
	left   int
}

func (h *holdEvent) OnEvent(e *sim.Engine, _ sim.EventArg) {
	if h.left <= 0 {
		return
	}
	h.left--
	h.i++
	e.ScheduleCall(h.delays[h.i%len(h.delays)], h, sim.EventArg{})
}

// holdNSPerEvent is the host time per event of a bare sim.Engine holding
// depth pending events, median of three runs of n events.
func holdNSPerEvent(depth, n int) float64 {
	rng := sim.NewRNG(1)
	delays := make([]sim.Duration, 4096)
	for i := range delays {
		delays[i] = rng.ExpDuration(100*sim.Nanosecond) + 1
	}
	var runs []float64
	for r := 0; r < 3; r++ {
		eng := sim.NewEngine()
		h := &holdEvent{delays: delays, left: n}
		for i := 0; i < depth; i++ {
			eng.ScheduleCall(delays[(i*7)%len(delays)], h, sim.EventArg{})
		}
		t0 := time.Now()
		eng.Run()
		runs = append(runs, float64(time.Since(t0))/float64(eng.Executed()))
	}
	return median(runs)
}

// buildMS is the median time of networks.New across the six designs.
func buildMS(reps int) float64 {
	p := core.DefaultParams()
	var times []float64
	for _, k := range networks.Six() {
		for r := 0; r < reps; r++ {
			eng := sim.NewEngine()
			t0 := time.Now()
			if _, err := networks.New(k, eng, p, core.NewStats(0)); err != nil {
				continue
			}
			times = append(times, ms(time.Since(t0)))
		}
	}
	return median(times)
}

// fixedCellMS is the median time of a RunLoadPoint with a 1 ps window
// (the smallest the statistics accept) — the fixed construction and
// assembly cost every cell pays.
func fixedCellMS(reps int) float64 {
	cfg := harness.DefaultLoadPointConfig()
	cfg.Warmup, cfg.Measure = 0, 1
	cfg.Pattern = traffic.All(cfg.Params.Grid)[0]
	cfg.Load = 0.1
	var times []float64
	for _, k := range networks.Six() {
		cfg.Network = k
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			harness.RunLoadPoint(cfg)
			times = append(times, ms(time.Since(t0)))
		}
	}
	return median(times)
}
