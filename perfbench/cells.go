package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"macrochip/internal/coherence"
	"macrochip/internal/core"
	"macrochip/internal/cpu"
	"macrochip/internal/harness"
	"macrochip/internal/memory"
	"macrochip/internal/networks"
	"macrochip/internal/opgraph"
	"macrochip/internal/power"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
	"macrochip/internal/workload"
)

// Cell kinds, named as the harness names them on the wire.
const (
	kindLoadPoint = "loadpoint"
	kindBenchCell = "benchcell"
	kindInference = "inference"
)

// cell is one independent simulation of a study, described by the same
// inputs the harness derives for it, so the benchmark can run it alone
// through the exported per-cell entry points.
type cell struct {
	kind string
	lp   harness.LoadPointConfig
	// benchcell
	bench  cpu.Benchmark
	net    networks.Kind
	params core.Params
	seed   int64
	// inference
	inf          harness.InferenceConfig
	graph        string
	batch, seqLn int
}

// fig6Cells lists the cells of Figure6With(base) in its job order,
// restricted to each pattern's lowest nLoads loads when nLoads > 0.
func fig6Cells(base harness.LoadPointConfig, nLoads int) []cell {
	var out []cell
	for _, pat := range traffic.All(base.Params.Grid) {
		loads := harness.Figure6Loads(pat.Name())
		if nLoads > 0 {
			loads = loads[:nLoads]
		}
		for _, k := range networks.Five() {
			for _, load := range loads {
				cfg := base
				cfg.Network, cfg.Pattern, cfg.Load = k, pat, load
				cfg.Seed = harness.PointSeed(base.Seed, k, pat.Name(), load)
				out = append(out, cell{kind: kindLoadPoint, lp: cfg})
			}
		}
	}
	return out
}

// studyCells lists the cells of FullStudyWith(p, scale, seed) in job order.
func studyCells(p core.Params, scale workload.Scale, seed int64) []cell {
	var out []cell
	for _, b := range workload.All(p.Grid, scale) {
		for _, k := range networks.Six() {
			out = append(out, cell{kind: kindBenchCell, bench: b, net: k, params: p, seed: harness.CellSeed(seed, b.Name, k)})
		}
	}
	return out
}

// inferenceCells lists the cells of InferenceStudyWith(cfg).
func inferenceCells(cfg harness.InferenceConfig) []cell {
	kinds := cfg.Networks
	if kinds == nil {
		kinds = networks.Six()
	}
	graphs := cfg.Graphs
	if graphs == nil {
		graphs = opgraph.PresetNames()
	}
	batches, seqs := cfg.Batches, cfg.SeqLens
	if batches == nil {
		batches = []int{1}
	}
	if seqs == nil {
		seqs = []int{16}
	}
	var out []cell
	for _, k := range kinds {
		for _, g := range graphs {
			for _, b := range batches {
				for _, s := range seqs {
					out = append(out, cell{kind: kindInference, inf: cfg, net: k, graph: g, batch: b, seqLn: s})
				}
			}
		}
	}
	return out
}

// probe accumulates what benchmark-built engines and networks show while
// cells run.
type probe struct {
	// depthSum/depthMax/depthN sample Engine.Pending at every dispatch.
	depthSum, depthN uint64
	depthMax         int
	// injects/injectNS count Network.Inject calls and their host time.
	injects  uint64
	injectNS int64
}

// instrument attaches the probe to an engine and wraps a network.
func (pr *probe) instrument(eng *sim.Engine, net core.Network) core.Network {
	eng.SetDispatchHook(func(sim.Time) {
		d := eng.Pending()
		pr.depthSum += uint64(d)
		pr.depthN++
		if d > pr.depthMax {
			pr.depthMax = d
		}
	})
	return &timedNetwork{Network: net, pr: pr}
}

// timedNetwork is a core.Network decorator that counts and times Inject
// calls; Name and Stats pass through.
type timedNetwork struct {
	core.Network
	pr *probe
}

func (t *timedNetwork) Inject(p *core.Packet) {
	t0 := time.Now()
	t.Network.Inject(p)
	t.pr.injectNS += int64(time.Since(t0))
	t.pr.injects++
}

// runLoadPointProbed re-runs one figure-6 cell on an engine and network the
// benchmark builds itself, mirroring harness.RunLoadPoint on the serial
// kernel. pr may be nil. Callers compare the result with RunLoadPoint's, so
// a drift between this mirror and the harness fails the run instead of
// skewing the layer figures.
func runLoadPointProbed(cfg harness.LoadPointConfig, pr *probe) (harness.LoadPoint, error) {
	eng := sim.NewEngine()
	stats := core.NewStats(cfg.Warmup)
	end := cfg.Warmup + cfg.Measure
	stats.MeasureEnd = end
	net, err := networks.New(cfg.Network, eng, cfg.Params, stats)
	if err != nil {
		return harness.LoadPoint{}, err
	}
	if pr != nil {
		net = pr.instrument(eng, net)
	}
	gen := &traffic.OpenLoop{
		Eng: eng, Params: cfg.Params, Net: net, Pattern: cfg.Pattern, Load: cfg.Load,
		PacketBytes: cfg.PacketBytes, Until: end, Seed: cfg.Seed,
	}
	gen.Start()
	eng.RunUntil(cfg.Warmup + 2*cfg.Measure)
	offered := cfg.Load * cfg.Params.SiteBandwidthGBs * float64(cfg.Params.Grid.Sites())
	thru := stats.ThroughputGBs()
	return harness.LoadPoint{
		Load:          cfg.Load,
		MeanLatency:   stats.MeanLatency(),
		P95Latency:    stats.LatencyPercentile(95),
		MaxLatency:    stats.MaxLatency(),
		ThroughputGBs: thru,
		OfferedGBs:    offered,
		Saturated:     thru < 0.90*offered,
		Delivered:     stats.Delivered,
		InFlight:      stats.InFlight(),
		Events:        eng.Executed(),
	}, nil
}

// runBenchCellProbed mirrors harness.RunBenchmark on a benchmark-built
// engine, returning the dispatched event count the BenchResult lacks.
func runBenchCellProbed(b cpu.Benchmark, kind networks.Kind, p core.Params, seed int64, pr *probe) (harness.BenchResult, uint64, error) {
	eng := sim.NewEngine()
	stats := core.NewStats(0)
	net, err := networks.New(kind, eng, p, stats)
	if err != nil {
		return harness.BenchResult{}, 0, err
	}
	if pr != nil {
		net = pr.instrument(eng, net)
	}
	var mem coherence.MemoryBackend
	if p.MemoryTech != "" {
		tech, err := memory.ByName(p.MemoryTech)
		if err != nil {
			return harness.BenchResult{}, 0, err
		}
		mem = memory.NewController(eng, p.Grid.Sites(), tech, seed+1)
	}
	res := cpu.Run(b, eng, p, net, stats, seed, mem)
	return harness.BenchResult{Result: res, Kind: kind, Energy: power.Compute(kind, p, stats, res.Runtime)}, eng.Executed(), nil
}

// runCell executes one cell alone and returns the result and its event
// count. Bench cells always run on the benchmark-built mirror, which
// supplies the count; load points do when pr is non-nil, so the probe can
// attach. Inference cells run on the harness entry point, which counts
// events itself. Callers compare mirrored results with the harness's.
func runCell(c cell, pr *probe) (value any, events uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s cell panicked: %v", c.kind, r)
		}
	}()
	switch c.kind {
	case kindLoadPoint:
		if pr == nil {
			pt := harness.RunLoadPoint(c.lp)
			return pt, pt.Events, nil
		}
		pt, err := runLoadPointProbed(c.lp, pr)
		return pt, pt.Events, err
	case kindBenchCell:
		res, ev, err := runBenchCellProbed(c.bench, c.net, c.params, c.seed, pr)
		return res, ev, err
	case kindInference:
		pt, err := harness.RunInferencePoint(c.inf, c.net, c.graph, c.batch, c.seqLn)
		return pt, pt.Events, err
	}
	return nil, 0, fmt.Errorf("unknown cell kind %q", c.kind)
}

// sameJSON reports whether two results encode identically — the
// byte-level equality every cross-path check uses.
func sameJSON(a, b any) bool {
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}

// fig6CSV renders panels exactly as `figures -fig 6 -csv` writes them, one
// file after another.
func fig6CSV(panels []harness.Figure6Panel) ([]byte, error) {
	var buf bytes.Buffer
	for _, p := range panels {
		if err := harness.WriteFigure6CSV(&buf, p); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// studyCSV renders a study and an inference sweep as the CLIs write them.
func studyCSV(rows []harness.StudyRow, points []harness.InferencePoint) ([]byte, error) {
	var buf bytes.Buffer
	if err := harness.WriteStudyCSV(&buf, rows); err != nil {
		return nil, err
	}
	if err := harness.WriteInferenceCSV(&buf, points); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
