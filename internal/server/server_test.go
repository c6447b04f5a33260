package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"macrochip/internal/expcache"
	"macrochip/internal/harness"
	"macrochip/internal/networks"
	"macrochip/internal/sim"
)

// newTestServer boots a daemon on httptest with a fresh cache directory and
// a quiet logger; mutate adjusts the config before construction.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server, *expcache.Cache) {
	t.Helper()
	cache, err := expcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Runner:       harness.Runner{Cache: cache},
		Workers:      2,
		PollInterval: 10 * time.Millisecond,
		// Tests fire many submissions back to back; keep the limiter out of
		// the way unless a test overrides it.
		RatePerSec: 1000,
		Burst:      1000,
		Log:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // best-effort teardown
	})
	return s, ts, cache
}

func postExperiment(t *testing.T, ts *httptest.Server, body string) (int, JobView, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &view); err != nil {
			t.Fatalf("202 body not a job view: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, view, raw
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// tinyFigure6 is a two-point figure-6 panel with quickCfg-sized windows —
// a few milliseconds of wall time.
const tinyFigure6 = `{"kind":"figure6","pattern":"uniform","networks":["point-to-point"],` +
	`"loads":[0.01,0.02],"warmup_ns":300,"measure_ns":900}`

// slowFigure6 runs long enough (hundreds of ms) to still be in flight when
// the test acts on it.
const slowFigure6 = `{"kind":"figure6","pattern":"uniform","networks":["point-to-point"],` +
	`"loads":[0.02],"warmup_ns":1000,"measure_ns":50000}`

// TestScalingResultMatchesHarnessGolden cross-checks the daemon against the
// repository's committed CLI artifact: a scaling experiment's CSV response
// must be byte-identical to the harness golden file that pins
// WriteScalingCSV output — the same bytes cmd/figures-style tooling writes.
func TestScalingResultMatchesHarnessGolden(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	code, view, raw := postExperiment(t, ts, `{"kind":"scaling","grid_sizes":[4,8]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", code, raw)
	}
	code, hdr, body := get(t, ts.URL+"/v1/experiments/"+view.ID+"/result?wait=true")
	if code != http.StatusOK {
		t.Fatalf("GET result = %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("Content-Type = %q, want text/csv", ct)
	}
	want, err := os.ReadFile(filepath.Join("..", "harness", "testdata", "scaling.csv.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("daemon CSV differs from the harness golden\n--- got ---\n%s--- want ---\n%s", body, want)
	}
}

// TestConcurrentIdenticalPostsCollapse is the headline daemon guarantee:
// two concurrent identical submissions execute exactly one simulation per
// point — observed via cache stats (misses = points, hits = points) — and
// both responses are byte-identical to what the harness (and therefore
// cmd/figures) writes for the same config.
func TestConcurrentIdenticalPostsCollapse(t *testing.T) {
	_, ts, cache := newTestServer(t, nil)

	var views [2]JobView
	for i := range views {
		code, view, raw := postExperiment(t, ts, tinyFigure6)
		if code != http.StatusAccepted {
			t.Fatalf("POST %d = %d: %s", i, code, raw)
		}
		views[i] = view
	}
	var bodies [2][]byte
	for i, view := range views {
		code, _, body := get(t, ts.URL+"/v1/experiments/"+view.ID+"/result?wait=true")
		if code != http.StatusOK {
			t.Fatalf("GET result %d = %d: %s", i, code, body)
		}
		bodies[i] = body
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("identical requests returned different bytes:\n--- a ---\n%s--- b ---\n%s", bodies[0], bodies[1])
	}

	// Two points in the panel, two submissions: exactly one simulation per
	// point (2 misses), and the duplicate request fully served from the
	// cache (2 hits — joined flights and published entries both count).
	st := cache.Stats()
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (one simulation per point)", st.Misses)
	}
	if st.Hits != 2 {
		t.Fatalf("hits = %d, want 2 (duplicate request served from cache)", st.Hits)
	}

	// Byte-identity with the CLI path: the same config through the public
	// harness entry point and CSV writer, on a fresh cache.
	other, err := expcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := harness.DefaultLoadPointConfig()
	base.Seed = 1
	base.Warmup = sim.FromNanoseconds(300)
	base.Measure = sim.FromNanoseconds(900)
	panel, err := harness.Figure6PanelWith(harness.Runner{Cache: other}, base, "uniform",
		[]networks.Kind{networks.PointToPoint}, []float64{0.01, 0.02})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := harness.WriteFigure6CSV(&want, panel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bodies[0], want.Bytes()) {
		t.Fatalf("daemon CSV differs from the harness writer's\n--- daemon ---\n%s--- harness ---\n%s",
			bodies[0], want.String())
	}
}

// TestGracefulDrain pins the SIGTERM semantics: the in-flight simulation
// finishes, the queued one aborts, and new submissions are rejected.
func TestGracefulDrain(t *testing.T) {
	s, ts, _ := newTestServer(t, func(c *Config) { c.Workers = 1 })

	code, running, raw := postExperiment(t, ts, slowFigure6)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", code, raw)
	}
	code, queued, raw := postExperiment(t, ts, tinyFigure6)
	if code != http.StatusAccepted {
		t.Fatalf("second POST = %d: %s", code, raw)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if view, ok := s.Queue().Get(running.ID); ok && view.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first experiment never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// New work is rejected as soon as the drain begins.
	rejectDeadline := time.Now().Add(5 * time.Second)
	for {
		code, _, body := postExperiment(t, ts, tinyFigure6)
		if code == http.StatusServiceUnavailable {
			if !bytes.Contains(body, []byte("draining")) {
				t.Fatalf("503 body = %s, want draining message", body)
			}
			break
		}
		if time.Now().After(rejectDeadline) {
			t.Fatalf("submission during drain = %d, want 503", code)
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if view, _ := s.Queue().Get(running.ID); view.Status != StatusDone {
		t.Fatalf("in-flight job after drain = %s, want done (drain must finish in-flight work)", view.Status)
	}
	if view, _ := s.Queue().Get(queued.ID); view.Status != StatusAborted {
		t.Fatalf("queued job after drain = %s, want aborted", view.Status)
	}
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatal("healthz must stay serving during drain")
	}
}

// TestRateLimit pins the 429 + Retry-After contract.
func TestRateLimit(t *testing.T) {
	_, ts, _ := newTestServer(t, func(c *Config) {
		c.RatePerSec = 0.01
		c.Burst = 1
	})
	code, _, raw := postExperiment(t, ts, `{"kind":"scaling","grid_sizes":[2]}`)
	if code != http.StatusAccepted {
		t.Fatalf("first POST = %d: %s", code, raw)
	}
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json",
		strings.NewReader(`{"kind":"scaling","grid_sizes":[2]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second POST = %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After = %q, want an integer ≥ 1", resp.Header.Get("Retry-After"))
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error.Message == "" {
		t.Fatalf("429 body not a structured error: %v", err)
	}
}

// TestMalformedConfigs pins the structured 400 contract for every
// validation failure class.
func TestMalformedConfigs(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	cases := []struct {
		name, body, field string
	}{
		{"not json", `{"kind":`, ""},
		{"missing kind", `{}`, "kind"},
		{"unknown kind", `{"kind":"nope"}`, "kind"},
		{"unknown field", `{"kind":"scaling","wat":1}`, ""},
		{"bad pattern", `{"kind":"figure6","pattern":"bogus"}`, "pattern"},
		{"bad network", `{"kind":"figure6","pattern":"uniform","networks":["warp-drive"]}`, "networks"},
		{"load out of range", `{"kind":"figure6","pattern":"uniform","loads":[1.5]}`, "loads"},
		{"window too long", `{"kind":"figure6","pattern":"uniform","measure_ns":2000000}`, "measure_ns"},
		{"bad grid size", `{"kind":"scaling","grid_sizes":[1]}`, "grid_sizes"},
		{"bad class", `{"kind":"resilience","classes":["meteor-strike"]}`, "classes"},
		{"negative rate", `{"kind":"resilience","rates":[-1]}`, "rates"},
		{"bad scale", `{"kind":"study","scale":99}`, "scale"},
		{"negative mtu", `{"kind":"inference","mtu":-4096}`, "mtu"},
		{"oversized mtu", `{"kind":"inference","mtu":2097152}`, "mtu"},
		{"unknown shards field", `{"kind":"figure6","pattern":"uniform","shards":2}`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, raw := postExperiment(t, ts, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("POST = %d, want 400: %s", code, raw)
			}
			var body errorBody
			if err := json.Unmarshal(raw, &body); err != nil || body.Error.Message == "" {
				t.Fatalf("400 body not a structured error: %s", raw)
			}
			if body.Error.Field != tc.field {
				t.Fatalf("error field = %q, want %q", body.Error.Field, tc.field)
			}
		})
	}
}

// TestEventsStreamNDJSON follows a job over the progress stream: every line
// is a well-formed event and the final one is terminal.
func TestEventsStreamNDJSON(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	code, view, raw := postExperiment(t, ts, `{"kind":"scaling","grid_sizes":[4]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", code, raw)
	}
	resp, err := http.Get(ts.URL + "/v1/experiments/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var last progressEvent
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("no progress events streamed")
	}
	if !Terminal(last.Job.Status) {
		t.Fatalf("stream ended on status %q, want terminal", last.Job.Status)
	}
	if last.Job.ID != view.ID {
		t.Fatalf("stream reported job %q, want %q", last.Job.ID, view.ID)
	}
}

// TestStatusListHealthzAndFormats covers the remaining read endpoints.
func TestStatusListHealthzAndFormats(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	code, view, raw := postExperiment(t, ts, `{"kind":"scaling","grid_sizes":[4]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", code, raw)
	}

	if code, _, _ := get(t, ts.URL+"/v1/experiments/"+view.ID); code != http.StatusOK {
		t.Fatalf("status endpoint = %d", code)
	}
	if code, _, raw := get(t, ts.URL+"/v1/experiments/exp-999999"); code != http.StatusNotFound {
		t.Fatalf("unknown id = %d: %s", code, raw)
	}
	code, _, raw = get(t, ts.URL+"/v1/experiments")
	if code != http.StatusOK || !bytes.Contains(raw, []byte(view.ID)) {
		t.Fatalf("list = %d missing %s: %s", code, view.ID, raw)
	}

	code, _, raw = get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	var health struct {
		Status string         `json:"status"`
		Queue  map[string]int `json:"queue"`
	}
	if err := json.Unmarshal(raw, &health); err != nil || health.Status != "ok" {
		t.Fatalf("healthz body = %s", raw)
	}

	// Result formats: json decodes, text is non-empty, bogus is a 400.
	code, _, raw = get(t, ts.URL+"/v1/experiments/"+view.ID+"/result?wait=true&format=json")
	if code != http.StatusOK {
		t.Fatalf("json result = %d: %s", code, raw)
	}
	var doc struct {
		ID     string          `json:"id"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || doc.ID != view.ID || len(doc.Result) == 0 {
		t.Fatalf("json result body = %s", raw)
	}
	code, _, raw = get(t, ts.URL+"/v1/experiments/"+view.ID+"/result?format=text")
	if code != http.StatusOK || len(raw) == 0 {
		t.Fatalf("text result = %d, %d bytes", code, len(raw))
	}
	if code, _, _ = get(t, ts.URL+"/v1/experiments/"+view.ID+"/result?format=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus format = %d, want 400", code)
	}

	code, _, raw = get(t, ts.URL+"/v1/cache/stats")
	if code != http.StatusOK || !bytes.Contains(raw, []byte(`"enabled": true`)) {
		t.Fatalf("cache stats = %d: %s", code, raw)
	}
}

// TestQueueFull pins the bounded-queue contract: with one worker occupied
// and a depth-1 queue, the third submission is rejected with 503 +
// Retry-After.
func TestQueueFull(t *testing.T) {
	s, ts, _ := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	code, running, raw := postExperiment(t, ts, slowFigure6)
	if code != http.StatusAccepted {
		t.Fatalf("POST 1 = %d: %s", code, raw)
	}
	// Wait until the worker picked the first job up, so the second one is
	// guaranteed to occupy the single queue slot.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if view, ok := s.Queue().Get(running.ID); ok && view.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first experiment never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, _, raw := postExperiment(t, ts, tinyFigure6); code != http.StatusAccepted {
		t.Fatalf("POST 2 = %d: %s", code, raw)
	}
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(tinyFigure6))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST 3 = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-full 503 missing Retry-After")
	}
}

// TestRecoveryMiddleware: a panicking compute inside an experiment must
// fail that job with a structured error, not kill the daemon.
func TestFailedExperimentReportsError(t *testing.T) {
	// An unknown format deep in run() is unreachable through validation, so
	// drive a panic through the queue directly.
	s, ts, _ := newTestServer(t, nil)
	_ = ts
	view, err := s.Queue().Submit(ExperimentConfig{Kind: "panic-for-test"})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := s.Queue().Done(view.ID)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("job never finished")
	}
	got, _ := s.Queue().Get(view.ID)
	if got.Status != StatusFailed || got.Error == "" {
		t.Fatalf("job = %+v, want failed with an error message", got)
	}
}

func ExampleExperimentConfig() {
	cfg, _ := ExperimentConfig{Kind: "scaling", GridSizes: []int{4}}.normalize()
	fmt.Println(cfg.Kind, cfg.Seed, cfg.GridSizes)
	// Output: scaling 1 [4]
}

// TestFinishedJobRetentionBounded pins the retention bound: past
// maxFinishedJobs terminal jobs the oldest are forgotten and answer 404
// exactly like an unknown ID, while the newest still serves its result.
func TestFinishedJobRetentionBounded(t *testing.T) {
	s, ts, _ := newTestServer(t, nil)
	var cfg ExperimentConfig
	if err := json.Unmarshal([]byte(tinyFigure6), &cfg); err != nil {
		t.Fatal(err)
	}
	cfg, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	// The first job computes; every later one is a cache hit. Batches keep
	// both workers finishing (and evicting) at once.
	var ids []string
	for len(ids) < maxFinishedJobs+10 {
		var batch []<-chan struct{}
		for i := 0; i < 32; i++ {
			view, err := s.Queue().Submit(cfg)
			if err != nil {
				t.Fatal(err)
			}
			done, _ := s.Queue().Done(view.ID)
			batch = append(batch, done)
			ids = append(ids, view.ID)
		}
		for _, done := range batch {
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("job never finished")
			}
		}
	}

	if _, _, finished := s.Queue().Counts(); finished > maxFinishedJobs {
		t.Errorf("Counts reports %d finished jobs, bound is %d", finished, maxFinishedJobs)
	}
	if n := len(s.Queue().List()); n > maxFinishedJobs {
		t.Errorf("List returns %d jobs, bound is %d", n, maxFinishedJobs)
	}
	for _, path := range []string{"", "/result"} {
		_, _, unknown := get(t, ts.URL+"/v1/experiments/exp-999999"+path)
		code, _, raw := get(t, ts.URL+"/v1/experiments/"+ids[0]+path)
		if code != http.StatusNotFound || !bytes.Equal(raw, unknown) {
			t.Errorf("evicted %s%s = %d %s, want 404 %s", ids[0], path, code, raw, unknown)
		}
	}
	newest := ids[len(ids)-1]
	code, _, raw := get(t, ts.URL+"/v1/experiments/"+newest+"/result?format=csv")
	if code != http.StatusOK || len(raw) == 0 {
		t.Fatalf("newest %s result = %d: %s", newest, code, raw)
	}
}
