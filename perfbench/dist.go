package main

import (
	"fmt"
	"io"
	"time"

	"macrochip/internal/core"
	"macrochip/internal/expcache"
	"macrochip/internal/harness"
	"macrochip/internal/sim"
	"macrochip/internal/workload"
)

// distStudyScale keeps the dist-sweep's coherence cells short.
const distStudyScale = workload.Scale(0.01)

// shortFig6 is the figure-6 base config at 100 ns warm-up and 300 ns
// measure, where fixed per-cell construction is a visible share of each
// cell.
func shortFig6(seed int64) harness.LoadPointConfig {
	cfg := harness.DefaultLoadPointConfig()
	cfg.Seed = seed
	cfg.Warmup = 100 * sim.Nanosecond
	cfg.Measure = 300 * sim.Nanosecond
	return cfg
}

func quickInference(seed int64) harness.InferenceConfig {
	cfg := harness.QuickInferenceConfig()
	cfg.Seed = seed
	return cfg
}

// distLoads is how many of each pattern's lowest figure-6 loads the
// dist-sweep runs; higher loads make long cells.
const distLoads = 5

var distPatterns = []string{"uniform", "transpose", "neighbor", "butterfly"}

// distSweep runs a few hundred short cells through a coordinator with
// nproc spawned `macrosim -worker` processes and no cache, at the default
// pipeline depth and protocol.
type distSweep struct {
	o           options
	fig         harness.LoadPointConfig
	scale       workload.Scale
	inf         harness.InferenceConfig
	coord       *harness.Coordinator
	handshakeMS float64
	last        distOutput
	// lastDelta is the coordinator's counter movement over the last unit.
	lastDelta harness.DistStats
	// localWall is the in-process Runner's time for the same unit.
	localWall float64
}

// distOutput is one unit's results.
type distOutput struct {
	panels []harness.Figure6Panel
	rows   []harness.StudyRow
	points []harness.InferencePoint
}

func newDistSweep(o options) scenario {
	return &distSweep{o: o, fig: shortFig6(o.seed), scale: distStudyScale, inf: quickInference(o.seed)}
}

func (w *distSweep) setup() error {
	t0 := time.Now()
	c, err := harness.NewCoordinator(harness.CoordinatorConfig{
		Workers: w.o.workers,
		Exec:    w.o.workerBin,
		Args:    []string{"-no-cache"},
		Seed:    w.o.seed,
		Log:     io.Discard,
	})
	if err != nil {
		return err
	}
	if err := c.AwaitWorkers(w.o.workers, 60*time.Second); err != nil {
		c.Close()
		return err
	}
	w.coord = c
	w.handshakeMS = float64(time.Since(t0)) / 1e6
	return nil
}

func (w *distSweep) teardown() {
	w.coord.Close()
	w.coord = nil
}

func (w *distSweep) children() []int {
	if w.coord == nil {
		return nil
	}
	return w.coord.WorkerPIDs()
}

// cells lists one unit's cells.
func (w *distSweep) cells() []cell {
	out := fig6Cells(w.fig, distLoads)
	out = append(out, studyCells(core.DefaultParams(), w.scale, w.o.seed)...)
	return append(out, inferenceCells(w.inf)...)
}

// statsDelta is the counter movement between two snapshots; per-worker
// entries carry the busy time and completions accrued in between.
func statsDelta(a, b harness.DistStats) harness.DistStats {
	d := harness.DistStats{
		Dispatched: b.Dispatched - a.Dispatched, Completed: b.Completed - a.Completed,
		Retried: b.Retried - a.Retried, Failed: b.Failed - a.Failed, BadValues: b.BadValues - a.BadValues,
		LocalFallback: b.LocalFallback - a.LocalFallback, Stolen: b.Stolen - a.Stolen,
		OutOfOrder: b.OutOfOrder - a.OutOfOrder, Deduped: b.Deduped - a.Deduped,
	}
	prev := map[string]harness.WorkerDistStats{}
	for _, ws := range a.Workers {
		prev[ws.Name] = ws
	}
	for _, ws := range b.Workers {
		p := prev[ws.Name]
		ws.Completed -= p.Completed
		ws.BusyMS -= p.BusyMS
		d.Workers = append(d.Workers, ws)
	}
	return d
}

// layer reports the coordinator's figures for the reference unit. Worker
// busy time is the coordinator's in-flight time per cell (send to
// result), which exceeds wall time when cells are pipelined, so the tax
// per cell is taken against the in-process Runner's time for the same
// cells instead: the extra worker-seconds the fleet spent per cell.
func (w *distSweep) layer(ref unitResult, lm map[string]float64) {
	d := w.lastDelta
	lm["dist.dispatched"] = float64(d.Dispatched)
	lm["dist.completed"] = float64(d.Completed)
	lm["dist.retried"] = float64(d.Retried)
	lm["dist.local_fallback"] = float64(d.LocalFallback)
	lm["dist.out_of_order"] = float64(d.OutOfOrder)
	lm["dist.handshake_ms"] = w.handshakeMS
	var busyMS float64
	for _, ws := range d.Workers {
		busyMS += float64(ws.BusyMS)
	}
	capMS := float64(w.o.workers) * ref.wall * 1000
	if capMS > 0 {
		lm["dist.worker_busy_frac"] = busyMS / capMS
	}
	if d.Completed > 0 && w.localWall > 0 {
		lm["dist.tax_ms_per_cell"] = float64(w.o.workers) * (ref.wall - w.localWall) * 1000 / float64(d.Completed)
	}
}

// run executes the unit's studies on r, one "study" span each when tr is
// non-nil.
func (w *distSweep) run(r harness.Runner, tr *tracer) (distOutput, error) {
	var out distOutput
	var infErr error
	study := func(fn func()) {
		t0 := time.Now()
		fn()
		tr.add(0, 0, tr.id(), "study", t0, time.Now())
	}
	err := catch(func() {
		for _, pat := range distPatterns {
			study(func() {
				p, err := harness.Figure6PanelWith(r, w.fig, pat, nil, harness.Figure6Loads(pat)[:distLoads])
				if err != nil {
					panic(err)
				}
				out.panels = append(out.panels, p)
			})
		}
		study(func() { out.rows = harness.FullStudyWith(r, core.DefaultParams(), w.scale, w.o.seed) })
		study(func() { out.points, infErr = harness.InferenceStudyWith(r, w.inf) })
	})
	if err == nil {
		err = infErr
	}
	return out, err
}

func (o distOutput) csv() ([]byte, error) {
	a, err := fig6CSV(o.panels)
	if err != nil {
		return nil, err
	}
	b, err := studyCSV(o.rows, o.points)
	return append(a, b...), err
}

// events counts the load-point and inference events; bench-cell events
// come from verify's replay.
func (o distOutput) events() uint64 {
	var ev uint64
	for _, p := range o.panels {
		for _, s := range p.Series {
			for _, pt := range s.Points {
				ev += pt.Events
			}
		}
	}
	for _, pt := range o.points {
		ev += pt.Events
	}
	return ev
}

func (w *distSweep) unit(i int) unitResult { return w.fleetUnit(nil) }

func (w *distSweep) tracedUnit(tr *tracer, lm map[string]float64) unitResult { return w.fleetUnit(tr) }

func (w *distSweep) fleetUnit(tr *tracer) unitResult {
	n := len(w.cells())
	u := unitResult{attempted: n}
	before := w.coord.Stats()
	out, err := w.run(harness.Runner{Workers: w.o.workers, Dist: w.coord}, tr)
	after := w.coord.Stats()
	w.lastDelta = statsDelta(before, after)
	if err != nil {
		u.failed = n
		return u
	}
	w.last = out
	u.cells = n
	u.events = out.events()
	u.failed = int(after.Failed - before.Failed + after.BadValues - before.BadValues)
	if u.output, err = out.csv(); err != nil {
		u.failed = n
	}
	return u
}

// verify requires the fleet's output to be byte-equal to an in-process
// Runner's for the same configs, pins it, and replays the bench cells on
// benchmark-built engines for their event count.
func (w *distSweep) verify(units []unitResult) error {
	if err := checkOutputs("dist-sweep", w.o.seed, units); err != nil {
		return err
	}
	t0 := time.Now()
	local, err := w.run(harness.Runner{Workers: w.o.workers}, nil)
	w.localWall = time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	want, err := local.csv()
	if err != nil {
		return err
	}
	if string(want) != string(units[0].output) {
		return fmt.Errorf("dist-sweep: fleet output differs from the in-process Runner's")
	}
	ev, err := replayBenchCells(studyCells(core.DefaultParams(), w.scale, w.o.seed), w.last.rows, w.o.workers)
	if err != nil {
		return err
	}
	for i := range units {
		units[i].events += ev
	}
	return nil
}

func (w *distSweep) resultCache() (*expcache.Cache, int) { return nil, 0 }
