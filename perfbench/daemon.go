package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"macrochip/internal/core"
	"macrochip/internal/expcache"
	"macrochip/internal/fault"
	"macrochip/internal/harness"
	"macrochip/internal/networks"
	"macrochip/internal/opgraph"
	"macrochip/internal/server"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
	"macrochip/internal/workload"
)

// Daemon-mix shape: each unit is unitRequests requests, and every
// coldEvery-th request is a new-seed experiment that misses the cache.
const (
	unitRequests = 100
	coldEvery    = 10
)

// repeatConfigs is the fixed quick-config set the daemon's warm requests
// draw from, covering every experiment kind.
func repeatConfigs(seed int64) []server.ExperimentConfig {
	five, six := networks.Five(), networks.Six()
	return []server.ExperimentConfig{
		{Kind: "figure6", Seed: seed, Quick: true, Pattern: "transpose", Loads: harness.Figure6Loads("transpose")[:4]},
		{Kind: "figure6", Seed: seed, Quick: true, Pattern: "uniform", Loads: []float64{0.02, 0.05}},
		{Kind: "figure6", Seed: seed, Quick: true, Pattern: "neighbor", Networks: names(five[:2]), Loads: harness.Figure6Loads("neighbor")[:3]},
		{Kind: "study", Seed: seed, Quick: true, Scale: 0.05},
		{Kind: "scaling", Seed: seed, GridSizes: []int{4, 8}},
		{Kind: "resilience", Seed: seed, Quick: true, Networks: names(six[:2]),
			Classes: []string{fault.DarkLaser.String()}, Rates: []float64{0, 20}},
		{Kind: "inference", Seed: seed, Quick: true},
		{Kind: "inference", Seed: seed, Quick: true, Graphs: opgraph.PresetNames()[:1], Batches: []int{1, 8}},
	}
}

// coldConfig is the g-th request's new-seed experiment: one small
// figure-6 point or one inference replay, chosen and seeded from the
// workload seed and g, so it misses the cache, computes and publishes.
func coldConfig(seed int64, g int) server.ExperimentConfig {
	rng := sim.NewRNG(sim.DeriveSeed(seed, sim.StringLabel("cold"), uint64(g)))
	s := seed*1_000_003 + int64(g) + 2
	if rng.Bool(0.5) {
		pat := distPatterns[rng.Intn(len(distPatterns))]
		loads := harness.Figure6Loads(pat)
		return server.ExperimentConfig{Kind: "figure6", Seed: s, Quick: true, Pattern: pat,
			Networks: names(networks.Five()[rng.Intn(5):][:1]), Loads: []float64{loads[rng.Intn(4)]}}
	}
	return server.ExperimentConfig{Kind: "inference", Seed: s, Quick: true,
		Networks: names(networks.Six()[rng.Intn(6):][:1]),
		Graphs:   []string{opgraph.PresetNames()[rng.Intn(len(opgraph.PresetNames()))]}}
}

func names(ks []networks.Kind) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = string(k)
	}
	return out
}

// expected computes a config's CSV in-process, the same way the daemon
// maps it onto the harness, so a response can be required byte-equal to
// the in-process Runner's output. It also returns the cells' event count
// where the results carry one.
func expected(r harness.Runner, cfg server.ExperimentConfig) ([]byte, uint64, error) {
	var buf bytes.Buffer
	var events uint64
	kinds := func() []networks.Kind {
		if cfg.Networks == nil {
			return nil
		}
		out := []networks.Kind{}
		for _, n := range cfg.Networks {
			out = append(out, networks.Kind(n))
		}
		return out
	}
	var err error
	switch cfg.Kind {
	case "figure6":
		var p harness.Figure6Panel
		p, err = harness.Figure6PanelWith(r, quickFig6(cfg.Seed), cfg.Pattern, kinds(), cfg.Loads)
		if err == nil {
			for _, s := range p.Series {
				for _, pt := range s.Points {
					events += pt.Events
				}
			}
			err = harness.WriteFigure6CSV(&buf, p)
		}
	case "study":
		rows := harness.FullStudyWith(r, core.DefaultParams(), workload.Scale(cfg.Scale*0.1), cfg.Seed)
		err = harness.WriteStudyCSV(&buf, rows)
	case "scaling":
		err = harness.WriteScalingCSV(&buf, harness.ScalingStudyWith(r, cfg.GridSizes))
	case "resilience":
		rc := harness.DefaultResilienceConfig()
		rc.Seed = cfg.Seed
		rc.Warmup, rc.Measure = 250*sim.Nanosecond, 1*sim.Microsecond
		rc.MTTR, rc.Retry.Timeout = 500*sim.Nanosecond, 500*sim.Nanosecond
		rc.Networks = kinds()
		for _, s := range cfg.Classes {
			c, perr := fault.ParseClass(s)
			if perr != nil {
				return nil, 0, perr
			}
			rc.Classes = append(rc.Classes, c)
		}
		rc.Rates = cfg.Rates
		err = harness.WriteResilienceCSV(&buf, harness.ResilienceStudyWith(r, rc))
	case "inference":
		ic := harness.QuickInferenceConfig()
		ic.Seed = cfg.Seed
		ic.Networks = kinds()
		if cfg.Graphs != nil {
			ic.Graphs = cfg.Graphs
		}
		if cfg.Batches != nil {
			ic.Batches = cfg.Batches
		}
		var pts []harness.InferencePoint
		pts, err = harness.InferenceStudyWith(r, ic)
		if err == nil {
			for _, pt := range pts {
				events += pt.Events
			}
			err = harness.WriteInferenceCSV(&buf, pts)
		}
	default:
		err = fmt.Errorf("unknown kind %q", cfg.Kind)
	}
	return buf.Bytes(), events, err
}

// csvRows counts a CSV's data rows — one per simulated cell in every
// experiment kind.
func csvRows(b []byte) int { return bytes.Count(b, []byte("\n")) - 1 }

// daemonMixed is a closed loop of nproc clients against server.New's
// handler on a loopback listener.
type daemonMixed struct {
	o       options
	tr      *tracer // non-nil in traced runs
	dir     string
	srv     *server.Server
	httpSrv *http.Server
	served  chan struct{}
	base    string
	client  *http.Client

	repeats   []server.ExperimentConfig
	want      [][]byte // expected CSV per repeat config
	rows      []int    // cells per repeat config
	prewarmed int      // entries in the cache directory after pre-warm

	mu    sync.Mutex
	colds []coldResp
	// traced-run server timings, ms
	submitMS, queueMS, runMS, fetchMS []float64
	rejects                           atomic.Int64
}

// coldResp is one new-seed response kept for verification.
type coldResp struct {
	unit int
	cfg  server.ExperimentConfig
	body []byte
}

func newDaemonMixed(o options) scenario { return &daemonMixed{o: o} }

// setup pre-warms the repeat set into a fresh cache directory through an
// in-process Runner, then starts the daemon on its own handle of that
// directory, so warm requests are served from disk and then from the hot
// tier.
func (w *daemonMixed) setup() error {
	w.dir = filepath.Join(w.o.workDir, "daemon-cache")
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	pre, err := expcache.Open(w.dir)
	if err != nil {
		return err
	}
	w.repeats = repeatConfigs(w.o.seed)
	w.want, w.rows = nil, nil
	for _, cfg := range w.repeats {
		b, _, err := expected(harness.Runner{Workers: w.o.workers, Cache: pre}, cfg)
		if err != nil {
			return fmt.Errorf("pre-warm %s: %w", cfg.Kind, err)
		}
		w.want = append(w.want, b)
		w.rows = append(w.rows, csvRows(b))
	}
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return err
	}
	w.prewarmed = len(entries)
	cache, err := expcache.Open(w.dir)
	if err != nil {
		return err
	}
	w.srv = server.New(server.Config{
		Runner:     harness.Runner{Workers: w.o.workers, Cache: cache},
		Workers:    w.o.workers,
		RatePerSec: 1e9,
		Burst:      1e9,
		Log:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.httpSrv = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.httpSrv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
	}()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.o.workers}}
	return nil
}

func (w *daemonMixed) teardown() {
	if w.httpSrv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w.srv.Drain(ctx)        //nolint:errcheck // in-flight work is bounded by ctx
	w.httpSrv.Shutdown(ctx) //nolint:errcheck // listener teardown only
	<-w.served
	w.client.CloseIdleConnections()
	w.httpSrv = nil
}

func (w *daemonMixed) children() []int { return nil }

func (w *daemonMixed) unit(i int) unitResult {
	u := unitResult{attempted: unitRequests, latencies: make([]float64, unitRequests)}
	var next atomic.Int64
	var failed, cells atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.o.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= unitRequests {
					return
				}
				g := i*unitRequests + j
				ms, n, err := w.request(i, g)
				u.latencies[j] = ms
				cells.Add(int64(n))
				if err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	u.failed = int(failed.Load())
	u.cells = int(cells.Load())
	return u
}

// request runs the g-th request: POST, then GET the CSV result with
// wait=true. It returns the submit-to-last-byte time in ms (up to the
// failure, for a failed request) and the cells the result covers.
func (w *daemonMixed) request(unit, g int) (float64, int, error) {
	var cfg server.ExperimentConfig
	repeat := -1
	if g%coldEvery == coldEvery-1 {
		cfg = coldConfig(w.o.seed, g)
	} else {
		rng := sim.NewRNG(sim.DeriveSeed(w.o.seed, sim.StringLabel("repeat"), uint64(g)))
		repeat = rng.Intn(len(w.repeats))
		cfg = w.repeats[repeat]
	}
	body, err := json.Marshal(cfg)
	if err != nil {
		return 0, 0, err
	}
	trace := w.tr.id()
	t0 := time.Now()
	since := func() float64 { return ms(time.Since(t0)) }
	resp, err := w.client.Post(w.base+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		return since(), 0, err
	}
	var view server.JobView
	derr := json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	t1 := time.Now()
	if resp.StatusCode != http.StatusAccepted || derr != nil {
		w.noteReject(resp.StatusCode)
		return since(), 0, fmt.Errorf("submit: status %d, %v", resp.StatusCode, derr)
	}
	resp, err = w.client.Get(w.base + "/v1/experiments/" + view.ID + "/result?wait=true&format=csv")
	if err != nil {
		return since(), 0, err
	}
	got, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	t2 := time.Now()
	lat := ms(t2.Sub(t0))
	if resp.StatusCode != http.StatusOK || rerr != nil {
		w.noteReject(resp.StatusCode)
		return lat, 0, fmt.Errorf("result: status %d, %v", resp.StatusCode, rerr)
	}
	if w.tr != nil {
		w.traceRequest(trace, view.ID, t0, t1, t2)
	}
	if repeat >= 0 {
		if !bytes.Equal(got, w.want[repeat]) {
			return lat, 0, errors.New("warm response differs from the in-process Runner's output")
		}
		return lat, w.rows[repeat], nil
	}
	w.mu.Lock()
	w.colds = append(w.colds, coldResp{unit: unit, cfg: cfg, body: got})
	w.mu.Unlock()
	return lat, csvRows(got), nil
}

func (w *daemonMixed) noteReject(code int) {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.rejects.Add(1)
	}
}

// traceRequest records a request's spans — submit, the server-side queue
// wait and run from the job's own timestamps, and the fetch after the run
// finished — and the per-layer server timings.
func (w *daemonMixed) traceRequest(trace int64, id string, t0, t1, t2 time.Time) {
	resp, err := w.client.Get(w.base + "/v1/experiments/" + id)
	if err != nil {
		return
	}
	var view server.JobView
	derr := json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if derr != nil || view.Started == nil || view.Finished == nil {
		return
	}
	root := w.tr.id()
	w.tr.add(0, root, trace, "server.submit", t0, t1)
	w.tr.add(0, root, trace, "server.queue", view.Created, *view.Started)
	w.tr.add(0, root, trace, "server.run", *view.Started, *view.Finished)
	fetchStart := *view.Finished
	if fetchStart.Before(t1) {
		fetchStart = t1
	}
	w.tr.add(0, root, trace, "server.fetch", fetchStart, t2)
	w.tr.add(root, 0, trace, "request", t0, t2)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.submitMS = append(w.submitMS, ms(t1.Sub(t0)))
	w.queueMS = append(w.queueMS, ms(view.Started.Sub(view.Created)))
	w.runMS = append(w.runMS, ms(view.Finished.Sub(*view.Started)))
	w.fetchMS = append(w.fetchMS, ms(t2.Sub(fetchStart)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// verify pins the repeat set's output and requires every new-seed
// response to equal the in-process Runner's output for its config; the
// recomputation also supplies the event counts of the cold cells.
func (w *daemonMixed) verify(units []unitResult) error {
	if w.o.seed == pinSeed {
		if err := checkDigest(pinnedDigests["daemon-mixed"], bytes.Join(w.want, nil)); err != nil {
			return fmt.Errorf("daemon-mixed: %w", err)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, w.o.workers)
	events := make([]atomic.Uint64, len(units))
	for g := 0; g < w.o.workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.colds) {
					return
				}
				c := w.colds[i]
				want, ev, err := expected(harness.Serial, c.cfg)
				if err == nil && !bytes.Equal(want, c.body) {
					err = fmt.Errorf("daemon-mixed: %s response differs from the in-process Runner's output", c.cfg.Kind)
				}
				if err != nil {
					errs[g] = err
					return
				}
				if c.unit < len(units) {
					events[c.unit].Add(ev)
				}
			}
		}(g)
	}
	wg.Wait()
	for i := range units {
		units[i].events = events[i].Load()
	}
	return errors.Join(errs...)
}

func (w *daemonMixed) resultCache() (*expcache.Cache, int) { return w.srv.Cache(), w.prewarmed }

// tracedUnit runs one more unit of requests with spans, and reports the
// server-side timings taken from each job's own timestamps.
func (w *daemonMixed) tracedUnit(tr *tracer, lm map[string]float64) unitResult {
	w.tr = tr
	u := w.unit(1)
	w.tr = nil
	w.mu.Lock()
	defer w.mu.Unlock()
	lm["server.submit_ms"] = median(w.submitMS)
	lm["server.queue_wait_ms"] = median(w.queueMS)
	lm["server.run_ms"] = median(w.runMS)
	lm["server.run_ms_p99"], _ = tail99(w.runMS)
	lm["server.fetch_ms"] = median(w.fetchMS)
	lm["server.rejects"] = float64(w.rejects.Load())
	return u
}

// cells lists the cells of the first units' new-seed requests — the
// daemon's only simulations — for the per-kind sample.
func (w *daemonMixed) cells() []cell {
	var out []cell
	for g := coldEvery - 1; g < 2*unitRequests; g += coldEvery {
		cfg := coldConfig(w.o.seed, g)
		k := networks.Kind(cfg.Networks[0])
		if cfg.Kind == "figure6" {
			lp := quickFig6(cfg.Seed)
			pat, err := traffic.ByName(cfg.Pattern, lp.Params.Grid)
			if err != nil {
				continue
			}
			lp.Network, lp.Pattern, lp.Load = k, pat, cfg.Loads[0]
			lp.Seed = harness.PointSeed(cfg.Seed, k, pat.Name(), lp.Load)
			out = append(out, cell{kind: kindLoadPoint, lp: lp})
			continue
		}
		ic := harness.QuickInferenceConfig()
		ic.Seed = cfg.Seed
		out = append(out, cell{kind: kindInference, inf: ic, net: k, graph: cfg.Graphs[0], batch: 1, seqLn: 16})
	}
	return out
}
