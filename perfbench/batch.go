package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"macrochip/internal/core"
	"macrochip/internal/expcache"
	"macrochip/internal/harness"
	"macrochip/internal/networks"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
	"macrochip/internal/workload"
)

// quickFig6 is the figure-6 base config of `figures -fig 6 -quick`.
func quickFig6(seed int64) harness.LoadPointConfig {
	cfg := harness.DefaultLoadPointConfig()
	cfg.Seed = seed
	cfg.Warmup = 500 * sim.Nanosecond
	cfg.Measure = 1500 * sim.Nanosecond
	return cfg
}

// studyScale is the reduced instruction-quota scale of the closed-loop
// study: `figures -fig 7 -quick`.
const studyScale = workload.Scale(0.1)

// freshCache opens an empty result cache under dir for one unit.
func freshCache(dir string, i int) (*expcache.Cache, error) {
	path := filepath.Join(dir, fmt.Sprintf("cache-%d", i))
	if err := os.RemoveAll(path); err != nil {
		return nil, err
	}
	return expcache.Open(path)
}

// warmUp runs one very short load point per network so lazily built
// tables and the heap are in place before the first timed unit.
func warmUp(seed int64) {
	cfg := quickFig6(seed)
	cfg.Warmup, cfg.Measure = 100*sim.Nanosecond, 300*sim.Nanosecond
	cfg.Pattern = traffic.All(cfg.Params.Grid)[0]
	cfg.Load = 0.1
	for _, k := range networks.Six() {
		cfg.Network = k
		harness.RunLoadPoint(cfg)
	}
}

// fig6Sweep is the figure-6 study exactly as `figures -fig 6 -quick` runs
// it: 195 open-loop load points through Runner{Workers: nproc} with a fresh
// result cache per unit.
type fig6Sweep struct {
	o      options
	base   harness.LoadPointConfig
	cache  *expcache.Cache // the last unit's cache, read by the traced run
	panels []harness.Figure6Panel
}

func newFig6Sweep(o options) scenario { return &fig6Sweep{o: o, base: quickFig6(o.seed)} }

func (w *fig6Sweep) setup() error {
	c, err := freshCache(w.o.workDir, -1)
	if err != nil {
		return err
	}
	w.cache = c
	warmUp(w.o.seed)
	return nil
}

func (w *fig6Sweep) teardown()       {}
func (w *fig6Sweep) children() []int { return nil }

func (w *fig6Sweep) unit(i int) unitResult {
	cells := len(fig6Cells(w.base, 0))
	u := unitResult{attempted: cells}
	cache, err := freshCache(w.o.workDir, i)
	if err != nil {
		u.failed = cells
		return u
	}
	w.cache = cache
	var panels []harness.Figure6Panel
	if err := catch(func() {
		panels = harness.Figure6With(harness.Runner{Workers: w.o.workers, Cache: cache}, w.base)
	}); err != nil {
		u.failed = cells
		return u
	}
	w.panels = panels
	for _, p := range panels {
		for _, s := range p.Series {
			for _, pt := range s.Points {
				u.cells++
				u.events += pt.Events
			}
		}
	}
	u.output, err = fig6CSV(panels)
	if err != nil {
		u.failed = cells
	}
	return u
}

// verify pins the output and re-runs a seeded sample of the cheaper cells
// on a benchmark-built engine, outside the Runner and cache.
func (w *fig6Sweep) verify(units []unitResult) error {
	if err := checkOutputs("fig6-sweep", w.o.seed, units); err != nil {
		return err
	}
	return spotCheck(fig6Cells(w.base, 0), w.o.seed, func(c cell) any {
		return fig6Point(w.panels, c.lp)
	})
}

// fig6Point finds one load point's result in a sweep's panels.
func fig6Point(panels []harness.Figure6Panel, lp harness.LoadPointConfig) any {
	for _, p := range panels {
		for _, s := range p.Series {
			for _, pt := range s.Points {
				if p.Pattern == lp.Pattern.Name() && s.Network == lp.Network && pt.Load == lp.Load {
					return pt
				}
			}
		}
	}
	return nil
}

// spotCheck re-runs a seeded sample of cells alone, on benchmark-built
// engines where the kind allows, and requires each result to equal want's
// — the value the swept path produced. Saturated uniform cells are
// skipped: they cost up to seconds each.
func spotCheck(cells []cell, seed int64, want func(cell) any) error {
	rng := sim.NewRNG(seed)
	for n := 0; n < 3; {
		c := cells[rng.Intn(len(cells))]
		if c.kind == kindLoadPoint && c.lp.Pattern.Name() == "uniform" && c.lp.Load > 0.3 {
			continue
		}
		n++
		got, _, err := runCell(c, &probe{})
		if err != nil {
			return err
		}
		if !sameJSON(got, want(c)) {
			return fmt.Errorf("%s cell differs between the sweep and a lone re-run", c.kind)
		}
	}
	return nil
}

// catch runs fn and turns a panic into an error: a cell panic must count
// as a failed operation, not kill the run.
func catch(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	fn()
	return nil
}

// studyReplay is the closed-loop workload: the coherence-driven figure-7
// study at reduced scale plus the default inference sweep, at -j nproc
// with a fresh cache per unit.
type studyReplay struct {
	o      options
	scale  workload.Scale
	inf    harness.InferenceConfig
	cache  *expcache.Cache
	rows   []harness.StudyRow
	points []harness.InferencePoint
}

func newStudyReplay(o options) scenario {
	inf := harness.DefaultInferenceConfig()
	inf.Seed = o.seed
	return &studyReplay{o: o, scale: studyScale, inf: inf}
}

func (w *studyReplay) setup() error {
	c, err := freshCache(w.o.workDir, -1)
	if err != nil {
		return err
	}
	w.cache = c
	warmUp(w.o.seed)
	return nil
}

func (w *studyReplay) teardown()       {}
func (w *studyReplay) children() []int { return nil }

func (w *studyReplay) unit(i int) unitResult {
	p := core.DefaultParams()
	n := len(studyCells(p, w.scale, w.o.seed)) + len(inferenceCells(w.inf))
	u := unitResult{attempted: n}
	cache, err := freshCache(w.o.workDir, i)
	if err != nil {
		u.failed = n
		return u
	}
	w.cache = cache
	r := harness.Runner{Workers: w.o.workers, Cache: cache}
	var rows []harness.StudyRow
	var points []harness.InferencePoint
	var infErr error
	err = catch(func() {
		rows = harness.FullStudyWith(r, p, w.scale, w.o.seed)
		points, infErr = harness.InferenceStudyWith(r, w.inf)
	})
	if err != nil || infErr != nil {
		u.failed = n
		return u
	}
	u.cells = n
	w.rows, w.points = rows, points
	for _, pt := range points {
		u.events += pt.Events
	}
	u.output, err = studyCSV(rows, points)
	if err != nil {
		u.failed = n
	}
	return u
}

// verify pins the output, re-runs every bench cell on a benchmark-built
// engine (which must reproduce the harness result exactly, and supplies
// the event count), and spot-checks inference cells.
func (w *studyReplay) verify(units []unitResult) error {
	if err := checkOutputs("study-replay", w.o.seed, units); err != nil {
		return err
	}
	ev, err := replayBenchCells(studyCells(core.DefaultParams(), w.scale, w.o.seed), w.rows, w.o.workers)
	if err != nil {
		return err
	}
	for i := range units {
		units[i].events += ev
	}
	return spotCheck(inferenceCells(w.inf), w.o.seed, func(c cell) any {
		return inferencePoint(w.points, c)
	})
}

// inferencePoint finds one cell's result in an inference sweep.
func inferencePoint(points []harness.InferencePoint, c cell) any {
	for _, pt := range points {
		if pt.Network == c.net && pt.Graph == c.graph && pt.Batch == c.batch && pt.Seq == c.seqLn {
			return pt
		}
	}
	return nil
}

// replayBenchCells re-runs bench cells on benchmark-built engines across
// workers goroutines, requires each to equal the study row's cell, and
// returns their total event count.
func replayBenchCells(cells []cell, rows []harness.StudyRow, workers int) (uint64, error) {
	want := map[string]harness.BenchResult{}
	for _, r := range rows {
		for k, c := range r.Cells {
			want[r.Benchmark+"/"+string(k)] = c
		}
	}
	var total atomic.Uint64
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				c := cells[i]
				v, ev, err := runCell(c, nil)
				if err == nil && !sameJSON(v, want[c.bench.Name+"/"+string(c.net)]) {
					err = fmt.Errorf("bench cell %s/%s differs between the harness and the benchmark-built engine", c.bench.Name, c.net)
				}
				if err != nil {
					errs[g] = err
					return
				}
				total.Add(ev)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return total.Load(), nil
}

func (w *fig6Sweep) cells() []cell { return fig6Cells(w.base, 0) }

func (w *fig6Sweep) resultCache() (*expcache.Cache, int) { return w.cache, 0 }

// tracedUnit drives the sweep's cells itself, as Runner does, and
// reassembles the panels Figure6With would return.
func (w *fig6Sweep) tracedUnit(tr *tracer, lm map[string]float64) unitResult {
	cells := w.cells()
	u := unitResult{attempted: len(cells)}
	cache, err := freshCache(w.o.workDir, -2)
	if err != nil {
		u.failed = len(cells)
		return u
	}
	var acc poolAcc
	var out []any
	if err := catch(func() { out = tracedPool(tr, cells, w.o.workers, cache, w.o.seed, &acc) }); err != nil {
		u.failed = len(cells)
		return u
	}
	acc.report(lm)
	var panels []harness.Figure6Panel
	i := 0
	for _, pat := range traffic.All(w.base.Params.Grid) {
		panel := harness.Figure6Panel{Pattern: pat.Name()}
		for _, k := range networks.Five() {
			s := harness.SweepSeries{Network: k}
			for range harness.Figure6Loads(pat.Name()) {
				s.Points = append(s.Points, out[i].(harness.LoadPoint))
				i++
			}
			panel.Series = append(panel.Series, s)
		}
		panels = append(panels, panel)
	}
	u.cells = len(cells)
	if u.output, err = fig6CSV(panels); err != nil {
		u.failed = len(cells)
	}
	return u
}

func (w *studyReplay) cells() []cell {
	return append(studyCells(core.DefaultParams(), w.scale, w.o.seed), inferenceCells(w.inf)...)
}

func (w *studyReplay) resultCache() (*expcache.Cache, int) { return w.cache, 0 }

// tracedUnit drives the study's and the inference sweep's cells itself, as
// Runner does, and reassembles the rows and points.
func (w *studyReplay) tracedUnit(tr *tracer, lm map[string]float64) unitResult {
	bench := studyCells(core.DefaultParams(), w.scale, w.o.seed)
	inf := inferenceCells(w.inf)
	u := unitResult{attempted: len(bench) + len(inf)}
	cache, err := freshCache(w.o.workDir, -2)
	if err != nil {
		u.failed = u.attempted
		return u
	}
	var acc poolAcc
	var bout, iout []any
	err = catch(func() {
		bout = tracedPool(tr, bench, w.o.workers, cache, w.o.seed, &acc)
		iout = tracedPool(tr, inf, w.o.workers, cache, w.o.seed+1, &acc)
	})
	if err != nil {
		u.failed = u.attempted
		return u
	}
	acc.report(lm)
	rows := benchRows(bench, bout)
	points := make([]harness.InferencePoint, len(iout))
	for i, v := range iout {
		points[i] = v.(harness.InferencePoint)
	}
	u.cells = u.attempted
	if u.output, err = studyCSV(rows, points); err != nil {
		u.failed = u.attempted
	}
	return u
}

// benchRows groups bench-cell results into study rows, as RunStudyWith
// does.
func benchRows(cells []cell, out []any) []harness.StudyRow {
	var rows []harness.StudyRow
	for i, c := range cells {
		if len(rows) == 0 || rows[len(rows)-1].Benchmark != c.bench.Name {
			rows = append(rows, harness.StudyRow{Benchmark: c.bench.Name, Cells: map[networks.Kind]harness.BenchResult{}})
		}
		rows[len(rows)-1].Cells[c.net] = out[i].(harness.BenchResult)
	}
	return rows
}
