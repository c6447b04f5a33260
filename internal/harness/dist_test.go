package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"macrochip/internal/distrib"
	"macrochip/internal/fault"
	"macrochip/internal/networks"
	"macrochip/internal/opgraph"
	"macrochip/internal/traffic"
	"macrochip/internal/workload"
)

// pipeWorker is one in-process worker attached to a coordinator over
// io.Pipe transports — the unit-test stand-in for a spawned `macrosim
// -worker` process. crash severs both pipes abruptly, like a SIGKILL.
type pipeWorker struct {
	crash func()
}

// startPipeWorker runs ServeWorker in-process and attaches it to c. The
// connection is registered as remote so its capacity unit is surrendered on
// detach (matching a TCP worker's lifecycle, which has no respawn).
func startPipeWorker(tb testing.TB, c *Coordinator, name string, r Runner) *pipeWorker {
	tb.Helper()
	cellR, cellW := io.Pipe()     // coordinator → worker
	resultR, resultW := io.Pipe() // worker → coordinator
	quit := make(chan struct{})
	go func() {
		ServeWorker(cellR, resultW, r, name, quit, io.Discard) //nolint:errcheck // pipe teardown errors are expected
		resultW.Close()
	}()
	kill := func() {
		cellW.Close()
		cellR.Close()
		resultW.Close()
		resultR.Close()
	}
	if !c.attach(name, resultR, cellW, kill, true, true) {
		tb.Fatalf("attach %s refused", name)
	}
	return &pipeWorker{crash: kill}
}

// pipeFleet builds a transport-free coordinator with n in-process workers.
func pipeFleet(tb testing.TB, n int, cfg CoordinatorConfig) (*Coordinator, []*pipeWorker) {
	tb.Helper()
	c := newCoordinator(cfg)
	workers := make([]*pipeWorker, n)
	for i := range workers {
		workers[i] = startPipeWorker(tb, c, fmt.Sprintf("pipe-%d", i), Runner{Workers: 1})
	}
	if err := c.AwaitWorkers(n, 10*time.Second); err != nil {
		tb.Fatal(err)
	}
	return c, workers
}

// testFleetConfig keeps unit-test fleets snappy without touching the
// production defaults.
func testFleetConfig() CoordinatorConfig {
	return CoordinatorConfig{CellTimeout: 30 * time.Second, Seed: 7}
}

// TestDistFigure6ByteIdentity pins the headline guarantee: a figure-6 panel
// swept through the distributed fleet is byte-identical to the serial sweep
// at 1, 2, and 4 workers.
func TestDistFigure6ByteIdentity(t *testing.T) {
	cfg := quickCfg()
	render := func(r Runner) string {
		panel, err := Figure6PanelWith(r, cfg, "uniform",
			[]networks.Kind{networks.PointToPoint}, []float64{0.01, 0.02})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := WriteFigure6CSV(&b, panel); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(Serial)
	for _, n := range []int{1, 2, 4} {
		c, _ := pipeFleet(t, n, testFleetConfig())
		got := render(Runner{Dist: c})
		st := c.Stats()
		c.Close()
		if got != serial {
			t.Errorf("%d workers: distributed CSV differs from serial\nserial:\n%s\ndist:\n%s", n, serial, got)
		}
		if st.Completed == 0 {
			t.Errorf("%d workers: no cells executed remotely: %+v", n, st)
		}
		if st.LocalFallback != 0 || st.Failed != 0 {
			t.Errorf("%d workers: unexpected failures on a healthy fleet: %+v", n, st)
		}
	}
}

// TestDistResilienceByteIdentity extends the identity guarantee to the
// fault-injection sweep (a different cell kind with its own spec codec).
func TestDistResilienceByteIdentity(t *testing.T) {
	cfg := quickResilienceCfg()
	cfg.Networks = []networks.Kind{networks.PointToPoint}
	cfg.Classes = []fault.Class{fault.DarkLaser}
	render := func(r Runner) string {
		var b strings.Builder
		if err := WriteResilienceCSV(&b, ResilienceStudyWith(r, cfg)); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(Serial)
	for _, n := range []int{1, 2, 4} {
		c, _ := pipeFleet(t, n, testFleetConfig())
		got := render(Runner{Dist: c})
		st := c.Stats()
		c.Close()
		if got != serial {
			t.Errorf("%d workers: distributed resilience CSV differs from serial", n)
		}
		if st.Completed == 0 {
			t.Errorf("%d workers: no cells executed remotely: %+v", n, st)
		}
	}
}

// TestDistInferenceByteIdentity extends the identity guarantee to the
// operator-graph replay sweep.
func TestDistInferenceByteIdentity(t *testing.T) {
	cfg := QuickInferenceConfig()
	cfg.Networks = []networks.Kind{networks.PointToPoint}
	cfg.Graphs = opgraph.PresetNames()[:1]
	render := func(r Runner) string {
		points, err := InferenceStudyWith(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := WriteInferenceCSV(&b, points); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(Serial)
	for _, n := range []int{1, 2, 4} {
		c, _ := pipeFleet(t, n, testFleetConfig())
		got := render(Runner{Dist: c})
		st := c.Stats()
		c.Close()
		if got != serial {
			t.Errorf("%d workers: distributed inference CSV differs from serial", n)
		}
		if st.Completed == 0 {
			t.Errorf("%d workers: no cells executed remotely: %+v", n, st)
		}
	}
}

// attachScripted attaches a raw-protocol peer that plays an arbitrary
// (usually misbehaving) script — the chaos half of the protocol tests.
func attachScripted(tb testing.TB, c *Coordinator, name string, script func(rd *distrib.Reader, w io.Writer)) {
	tb.Helper()
	cellR, cellW := io.Pipe()
	resultR, resultW := io.Pipe()
	go func() {
		defer resultW.Close()
		script(distrib.NewReader(cellR), resultW)
	}()
	kill := func() {
		cellW.Close()
		cellR.Close()
		resultW.Close()
		resultR.Close()
	}
	if !c.attach(name, resultR, cellW, kill, true, true) {
		tb.Fatalf("attach %s refused", name)
	}
}

// TestDistChaosMisbehavingWorkers pins the failure policy end to end: a
// fleet of protocol violators — garbage replies, stale IDs, unsolicited
// answers, version skew, a credit-window hello, missing hello, hangs —
// loses cells to reassignment but never loses them for good, and the
// sweep's results still match serial exactly.
func TestDistChaosMisbehavingWorkers(t *testing.T) {
	cfg := testFleetConfig()
	cfg.CellTimeout = 500 * time.Millisecond // the hang worker must trip it quickly
	c := newCoordinator(cfg)

	hello := func(w io.Writer) {
		distrib.Write(w, distrib.Msg{Type: distrib.TypeHello, Version: distrib.Version, Worker: "chaos"}) //nolint:errcheck
	}
	// Garbage: answers its first cell with a line that is not JSON.
	attachScripted(t, c, "garbage", func(rd *distrib.Reader, w io.Writer) {
		hello(w)
		if _, err := rd.Read(); err != nil {
			return
		}
		io.WriteString(w, "certainly not json\n") //nolint:errcheck
	})
	// Stale: answers its first cell with a result for a different ID —
	// impersonating an answer the coordinator never asked it for.
	attachScripted(t, c, "stale", func(rd *distrib.Reader, w io.Writer) {
		hello(w)
		m, err := rd.Read()
		if err != nil {
			return
		}
		distrib.Write(w, distrib.Msg{Type: distrib.TypeResult, ID: m.ID + 1000, Value: []byte(`{}`)}) //nolint:errcheck
	})
	// Eager: answers a cell before it was sent one — either while idle, or
	// with an ID other than the cell it was just handed.
	attachScripted(t, c, "eager", func(rd *distrib.Reader, w io.Writer) {
		hello(w)
		distrib.Write(w, distrib.Msg{Type: distrib.TypeResult, ID: 1, Value: []byte(`{}`)}) //nolint:errcheck
		rd.Read()                                                                           //nolint:errcheck
	})
	// Skew: wrong protocol version, newer or older, or a v2 hello that
	// still advertises a credit window; must be dropped before any cell.
	attachScripted(t, c, "skew", func(rd *distrib.Reader, w io.Writer) {
		distrib.Write(w, distrib.Msg{Type: distrib.TypeHello, Version: distrib.Version + 1, Worker: "skew"}) //nolint:errcheck
	})
	attachScripted(t, c, "v1", func(rd *distrib.Reader, w io.Writer) {
		distrib.Write(w, distrib.Msg{Type: distrib.TypeHello, Version: 1, Worker: "v1"}) //nolint:errcheck
	})
	attachScripted(t, c, "v2", func(rd *distrib.Reader, w io.Writer) {
		io.WriteString(w, `{"type":"hello","version":2,"worker":"v2","credits":8}`+"\n") //nolint:errcheck
	})
	// Rude: skips the handshake entirely.
	attachScripted(t, c, "rude", func(rd *distrib.Reader, w io.Writer) {
		distrib.Write(w, distrib.Msg{Type: distrib.TypeResult, ID: 1, Value: []byte(`{}`)}) //nolint:errcheck
	})
	// Hang: accepts a cell and never answers; only the deadline saves it.
	attachScripted(t, c, "hang", func(rd *distrib.Reader, w io.Writer) {
		hello(w)
		rd.Read() //nolint:errcheck
		select {} //nolint:staticcheck // deliberately wedged
	})
	// One honest worker keeps the fleet alive.
	startPipeWorker(t, c, "honest", Runner{Workers: 1})

	cfgPt := quickCfg()
	cfgPt.Network = networks.PointToPoint
	cfgPt.Pattern = traffic.Uniform{Grid: cfgPt.Params.Grid}
	want := map[float64]LoadPoint{}
	for _, load := range []float64{0.01, 0.02, 0.04} {
		pc := cfgPt
		pc.Load = load
		pc.Seed = PointSeed(1, pc.Network, "uniform", load)
		want[load] = RunLoadPoint(pc)
	}
	for load, wantPt := range want {
		pc := cfgPt
		pc.Load = load
		pc.Seed = PointSeed(1, pc.Network, "uniform", load)
		got := runLoadPointOn(Runner{Dist: c}, pc)
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(wantPt)
		if string(a) != string(b) {
			t.Errorf("load %v: dist result %s != serial %s", load, a, b)
		}
	}
	st := c.Stats()
	c.Close()
	if st.Retried == 0 {
		t.Errorf("chaos fleet produced no reassignments: %+v", st)
	}
	if st.Completed < 3 {
		t.Errorf("honest worker completed %d cells, want all 3: %+v", st.Completed, st)
	}
	for _, w := range st.Workers {
		switch w.Name {
		case "skew", "v1", "v2":
			t.Errorf("worker %s passed the handshake with a foreign hello: %+v", w.Name, w)
		}
	}
}

// TestDistWorkerCellErrorFallsBackLocally pins the permanent-failure arm: a
// worker-reported cell error is not retried remotely — the caller computes
// locally and the failure is counted.
func TestDistWorkerCellErrorFallsBackLocally(t *testing.T) {
	c, _ := pipeFleet(t, 1, testFleetConfig())
	defer c.Close()
	if v, ok := c.Exec("no-such-kind", []byte(`{}`)); ok {
		t.Fatalf("Exec of bogus kind succeeded: %s", v)
	}
	st := c.Stats()
	if st.Failed != 1 || st.Retried != 0 {
		t.Fatalf("want exactly one permanent failure, no retries: %+v", st)
	}
}

// TestDistDrainFallsBackLocally pins that a drained coordinator is inert
// but harmless: every cell computes locally and the sweep still completes.
func TestDistDrainFallsBackLocally(t *testing.T) {
	c, _ := pipeFleet(t, 2, testFleetConfig())
	c.Drain()
	if p := c.Parallelism(); p != 0 {
		t.Fatalf("Parallelism after drain = %d, want 0", p)
	}
	cfg := quickCfg()
	cfg.Network = networks.PointToPoint
	cfg.Pattern = traffic.Uniform{Grid: cfg.Params.Grid}
	cfg.Load = 0.02
	got := runLoadPointOn(Runner{Dist: c}, cfg)
	want := RunLoadPoint(cfg)
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		t.Fatalf("post-drain result %s != serial %s", a, b)
	}
	c.Close()
}

// TestDistAllWorkersDeadAutoDrain pins the crash-storm endgame: when every
// worker connection dies, the coordinator drains itself and the sweep
// completes locally instead of queueing forever.
func TestDistAllWorkersDeadAutoDrain(t *testing.T) {
	c, workers := pipeFleet(t, 2, testFleetConfig())
	for _, w := range workers {
		w.crash()
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Parallelism() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if p := c.Parallelism(); p != 0 {
		t.Fatalf("Parallelism = %d after all workers crashed, want 0 (auto-drain)", p)
	}
	cfg := quickCfg()
	cfg.Network = networks.PointToPoint
	cfg.Pattern = traffic.Uniform{Grid: cfg.Params.Grid}
	cfg.Load = 0.02
	got := runLoadPointOn(Runner{Dist: c}, cfg)
	want := RunLoadPoint(cfg)
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		t.Fatalf("post-crash result %s != serial %s", a, b)
	}
	c.Close()
}

// TestDistWorkerCountByteIdentity pins byte-identity across fleet widths:
// at 1, 2 and 4 workers a six-point panel renders the same CSV as serial,
// the fleet is exactly as wide as its worker count, and every cell is
// answered remotely.
func TestDistWorkerCountByteIdentity(t *testing.T) {
	cfg := quickCfg()
	loads := []float64{0.005, 0.01, 0.015, 0.02, 0.025, 0.03}
	render := func(r Runner) string {
		panel, err := Figure6PanelWith(r, cfg, "uniform",
			[]networks.Kind{networks.PointToPoint}, loads)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := WriteFigure6CSV(&b, panel); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(Serial)
	for _, n := range []int{1, 2, 4} {
		c, _ := pipeFleet(t, n, testFleetConfig())
		if p := c.Parallelism(); p != n {
			t.Errorf("workers=%d: Parallelism = %d, want one cell per connection", n, p)
		}
		got := render(Runner{Dist: c})
		st := c.Stats()
		c.Close()
		if got != serial {
			t.Errorf("workers=%d: distributed CSV differs from serial", n)
		}
		if st.Completed != uint64(len(loads)) || st.Dispatched != st.Completed || st.LocalFallback != 0 || st.Failed != 0 {
			t.Errorf("workers=%d: unhealthy stats: %+v", n, st)
		}
		if len(st.Workers) != n {
			t.Errorf("workers=%d: stats list %d workers", n, len(st.Workers))
		}
	}
}

// TestDistOneCellPerConnection pins stop-and-wait dispatch: however many
// callers race to Exec, a connection is never sent a second cell before it
// has answered the first.
func TestDistOneCellPerConnection(t *testing.T) {
	c := newCoordinator(testFleetConfig())
	var held, most atomic.Int64
	attachScripted(t, c, "counter", func(rd *distrib.Reader, w io.Writer) {
		distrib.Write(w, distrib.Msg{Type: distrib.TypeHello, Version: distrib.Version, Worker: "counter"}) //nolint:errcheck
		cells := make(chan distrib.Msg)
		go func() {
			defer close(cells)
			for {
				m, err := rd.Read()
				if err != nil || m.Type != distrib.TypeCell {
					return
				}
				if h := held.Add(1); h > most.Load() {
					most.Store(h)
				}
				cells <- m
			}
		}()
		r := Runner{Workers: 1}
		for m := range cells {
			reply := executeCell(r, m)
			// Release before the write: the answer frees the connection.
			held.Add(-1)
			distrib.Write(w, reply) //nolint:errcheck
		}
	})
	if err := c.AwaitWorkers(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	loads := []float64{0.005, 0.01, 0.015, 0.02, 0.025, 0.03}
	panel := func(r Runner) Figure6Panel {
		p, err := Figure6PanelWith(r, cfg, "uniform", []networks.Kind{networks.PointToPoint}, loads)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	got := mustMarshal(t, panel(Runner{Workers: 4, Dist: c}))
	st := c.Stats()
	c.Close()
	if want := mustMarshal(t, panel(Serial)); string(got) != string(want) {
		t.Errorf("panel through one stop-and-wait worker differs from serial")
	}
	if st.Completed != uint64(len(loads)) {
		t.Errorf("completed %d cells, want %d: %+v", st.Completed, len(loads), st)
	}
	if m := most.Load(); m != 1 {
		t.Errorf("worker held up to %d cells at once, want 1", m)
	}
}

// TestDistUnknownCellIDTeardown pins the unknown-ID arm: a worker that
// answers its second cell with an ID it was never sent is torn down, and
// that cell is requeued exactly once — the answered cell stays answered,
// the orphaned one resolves locally (the lone worker is gone) without
// ever running twice.
func TestDistUnknownCellIDTeardown(t *testing.T) {
	c := newCoordinator(testFleetConfig())
	defer c.Close()
	attachScripted(t, c, "liar", func(rd *distrib.Reader, w io.Writer) {
		distrib.Write(w, distrib.Msg{Type: distrib.TypeHello, Version: distrib.Version, Worker: "liar"}) //nolint:errcheck
		r := Runner{Workers: 1}
		for answered := 0; ; {
			m, err := rd.Read()
			if err != nil {
				return
			}
			if m.Type != distrib.TypeCell {
				continue
			}
			if answered == 0 {
				distrib.Write(w, executeCell(r, m)) //nolint:errcheck
			} else {
				distrib.Write(w, distrib.Msg{Type: distrib.TypeResult, ID: 999999, Value: []byte(`{}`)}) //nolint:errcheck
			}
			answered++
		}
	})
	if err := c.AwaitWorkers(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	base := quickCfg()
	base.Network = networks.PointToPoint
	base.Pattern = traffic.Uniform{Grid: base.Params.Grid}
	type outcome struct {
		ok    bool
		value string
		want  string
	}
	results := make([]outcome, 2)
	var wg sync.WaitGroup
	for i, load := range []float64{0.01, 0.02} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := base
			cfg.Load = load
			cfg.Seed = PointSeed(1, cfg.Network, "uniform", load)
			value, ok := c.Exec("loadpoint", mustMarshal(t, cfg.cell()))
			results[i] = outcome{ok: ok, value: string(value), want: string(mustMarshal(t, RunLoadPoint(cfg)))}
		}()
	}
	wg.Wait()

	remote, local := 0, 0
	for i, r := range results {
		if r.ok {
			remote++
			if r.value != r.want {
				t.Errorf("cell %d: remote value %s != serial %s", i, r.value, r.want)
			}
		} else {
			local++
		}
	}
	// The answered cell came back remotely; the orphaned one resolved to
	// local compute after the teardown drained the lone-worker fleet.
	if remote != 1 || local != 1 {
		t.Errorf("want exactly 1 remote + 1 local resolution, got %d remote / %d local: %+v", remote, local, c.Stats())
	}
	st := c.Stats()
	if st.Completed != 1 || st.Dispatched != 2 || st.Retried != 1 {
		t.Errorf("want 2 dispatched, 1 completed, 1 retried: %+v", st)
	}
	if st.Deduped != 0 {
		t.Errorf("Deduped = %d, want 0 (no duplicate enqueue should ever fire): %+v", st.Deduped, st)
	}
}

// mustMarshal is the test-local canonical encoder.
func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// specCase is one wire spec and the direct in-process call it must match.
type specCase struct {
	spec interface{ kind() string }
	want func() (any, error)
}

// specCases returns one spec of every cell kind, built from the quick test
// configs. TestCellSpecsRoundTrip runs them and FuzzCellSpec seeds from
// them.
func specCases() []specCase {
	lp := quickCfg()
	lp.Network = networks.PointToPoint
	lp.Pattern = traffic.Uniform{Grid: lp.Params.Grid}
	lp.Load = 0.02
	lp.Seed = PointSeed(1, lp.Network, "uniform", lp.Load)

	bench := workload.All(lp.Params.Grid, workload.Scale(0.01))[0]
	seed := CellSeed(1, bench.Name, networks.PointToPoint)
	bc := benchcell{
		Params:       lp.Params,
		Name:         bench.Name,
		MissPerInstr: bench.MissPerInstr,
		Mix:          bench.Mix,
		Pattern:      bench.Pattern.Name(),
		InstrPerCore: bench.InstrPerCore,
		Network:      networks.PointToPoint,
		Seed:         seed,
	}

	rc := quickResilienceCfg()
	res := resilience{
		Params:      rc.Params,
		Network:     networks.PointToPoint,
		Class:       fault.DarkLaser.String(),
		Rate:        80,
		Load:        rc.Load,
		PacketBytes: rc.PacketBytes,
		Warmup:      rc.Warmup,
		Measure:     rc.Measure,
		MTTR:        rc.MTTR,
		Retry:       rc.Retry,
		Seed:        rc.Seed,
	}

	ic := QuickInferenceConfig()
	graph := opgraph.PresetNames()[0]
	inf := inference{
		Params:      ic.Params,
		Network:     networks.PointToPoint,
		Graph:       graph,
		Batch:       1,
		Seq:         16,
		PacketBytes: ic.PacketBytes,
		Retry:       ic.Retry,
		JitterFrac:  ic.JitterFrac,
		FaultWrap:   ic.FaultWrap,
		Seed:        ic.Seed,
	}

	return []specCase{
		{lp.cell(), func() (any, error) { return RunLoadPoint(lp), nil }},
		{bc, func() (any, error) { return RunBenchmark(bench, networks.PointToPoint, lp.Params, seed), nil }},
		{res, func() (any, error) { return RunResiliencePoint(rc, networks.PointToPoint, fault.DarkLaser, 80), nil }},
		{inf, func() (any, error) { return RunInferencePoint(ic, networks.PointToPoint, graph, 1, 16) }},
	}
}

// TestCellSpecsRoundTrip pins that every cell kind's wire spec round-trips
// through JSON into a config whose execution matches the direct in-process
// call — the worker side of the byte-identity argument. The traffic
// pattern travels by Name and is rebuilt via traffic.ByName; everything
// else travels by value.
func TestCellSpecsRoundTrip(t *testing.T) {
	cases := specCases()
	if len(cases) != len(wireCells) {
		t.Fatalf("%d spec cases for %d wire kinds", len(cases), len(wireCells))
	}
	for _, sc := range cases {
		kind := sc.spec.kind()
		v, err := RunCell(Serial, kind, mustMarshal(t, sc.spec))
		if err != nil {
			t.Fatalf("RunCell(%s): %v", kind, err)
		}
		want, err := sc.want()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mustMarshal(t, v), mustMarshal(t, want); string(got) != string(want) {
			t.Errorf("%s round-trip: %s != %s", kind, got, want)
		}
	}
}

// TestDistSpecUnknownFieldRejected pins the version-skew guard: a spec with
// a field this build does not know is a cell error, not a silent partial
// simulation.
func TestDistSpecUnknownFieldRejected(t *testing.T) {
	if _, err := RunCell(Serial, "loadpoint", []byte(`{"params":{},"bogus_field":1}`)); err == nil {
		t.Fatal("RunCell accepted a spec with an unknown field")
	}
}
