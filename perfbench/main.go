// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator's exported layers for a fixed time,
// checks that the outputs are correct, and prints one JSON result line.
//
//	perfbench --workload fig6-sweep --seed 1 --seconds 20 --trace 0
//	perfbench compare base.jsonl head.jsonl
//
// Use run.sh, which builds this binary and the macrosim worker first. See
// README.md for the workloads, the metrics and how to run an A/B.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"macrochip/internal/expcache"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options carry the command line into a workload.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	workers   int    // simulation workers, fleet processes or clients
	workDir   string // scratch space inside the checkout
	workerBin string // macrosim binary for the distributed fleet
	spansDir  string
}

// unitResult is one execution of a workload's fixed work.
type unitResult struct {
	wall, cpu float64 // host seconds, CPU seconds (children included)
	rss       float64 // peak resident MiB during the unit (children included)
	cells     int
	events    uint64
	// latencies holds one submit-to-last-byte time in ms per request; a
	// batch workload's request is the whole unit.
	latencies []float64
	attempted int
	failed    int
	// output is the unit's CSV, compared across units and to the pin.
	output []byte
}

// scenario is one benchmark workload. setup may run several times, with
// teardown between, so set-up time is reported as a median.
type scenario interface {
	setup() error
	teardown()
	// unit runs the i-th repetition of the fixed work.
	unit(i int) unitResult
	// verify checks the measured units' outputs after the clock stops. It
	// may fill in event counts that only a second pass can supply.
	verify(units []unitResult) error
	// children lists live helper processes, for CPU and memory totals.
	children() []int

	// The traced side: tracedUnit re-runs one unit with spans at every
	// layer boundary it can see, storing the figures only the traced path
	// observes in lm; cells lists the workload's cells for the per-kind
	// sample; resultCache is the cache the units used (nil for none) and
	// how many entries set-up pre-warmed into it.
	tracedUnit(tr *tracer, lm map[string]float64) unitResult
	cells() []cell
	resultCache() (c *expcache.Cache, prewarmed int)
}

// workloadInfo names a workload; BENCHMARK.json and README.md say why
// each one is in the benchmark.
type workloadInfo struct {
	name string
	make func(o options) scenario
}

var workloads = []workloadInfo{
	{"fig6-sweep", newFig6Sweep},
	{"study-replay", newStudyReplay},
	{"dist-sweep", newDistSweep},
	{"daemon-mixed", newDaemonMixed},
}

// setupReps is how many times set-up runs per measurement; its median is
// setup_s.
const setupReps = 3

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	o := options{workers: runtime.NumCPU()}
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement time in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.workDir, "work-dir", filepath.Join(".bench_build", "work"), "scratch directory (removed at exit)")
	flag.StringVar(&o.spansDir, "spans-dir", filepath.Join(".bench_build", "spans"), "where traced runs write their spans")
	flag.StringVar(&o.workerBin, "worker-bin", defaultWorkerBin(), "macrosim binary for the dist-sweep fleet")
	record := flag.String("record", "", "also append the run (workload, seed, environment, result) as one JSON line to this file")
	flag.Parse()
	o.trace = *traceFlag == 1

	var info *workloadInfo
	for i := range workloads {
		if workloads[i].name == o.workload {
			info = &workloads[i]
		}
	}
	if info == nil || o.seconds <= 0 || o.seed < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seed >= 0 and --seconds > 0\n", workloadNames())
		os.Exit(2)
	}
	o.workDir = filepath.Join(o.workDir, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(o.workDir)

	env := environment()
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)

	var res result
	var err error
	if o.trace {
		res, err = runTraced(info.make(o), o)
	} else {
		res, err = runMeasured(info.make(o), o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for name := range res.Metrics {
		if !validMetricName(name) {
			fmt.Fprintf(os.Stderr, "perfbench: invalid metric name %q\n", name)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *record != "" {
		if err := appendRecord(*record, o, env, res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// defaultWorkerBin is the macrosim that run.sh builds next to this binary.
func defaultWorkerBin() string {
	exe, err := os.Executable()
	if err != nil {
		return "macrosim"
	}
	return filepath.Join(filepath.Dir(exe), "macrosim")
}

// runRecord is one line of a --record file, the comparator's input.
type runRecord struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Trace    bool      `json:"trace"`
	Env      envRecord `json:"env"`
	Result   result    `json:"result"`
}

func appendRecord(path string, o options, env envRecord, res result) error {
	line, err := json.Marshal(runRecord{Workload: o.workload, Seed: o.seed, Trace: o.trace, Env: env, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setupTimes runs w's set-up setupReps times, tearing down between, and
// returns each duration in seconds; w is left set up.
func setupTimes(w scenario) ([]float64, error) {
	var times []float64
	for k := 0; k < setupReps; k++ {
		if k > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// measureUnits repeats w's fixed work until the next unit would end after
// the measurement time, always completing at least one unit.
func measureUnits(w scenario, seconds float64) []unitResult {
	start := time.Now()
	var units []unitResult
	var walls []float64
	for i := 0; ; i++ {
		resetPeakRSS(w.children())
		c0 := cpuSeconds(w.children())
		t0 := time.Now()
		u := w.unit(i)
		u.wall = time.Since(t0).Seconds()
		u.cpu = cpuSeconds(w.children()) - c0
		u.rss = peakRSSMiB(w.children())
		if u.latencies == nil {
			u.latencies = []float64{u.wall * 1000}
		}
		units = append(units, u)
		walls = append(walls, u.wall)
		if time.Since(start).Seconds()+median(walls) > seconds {
			return units
		}
	}
}

// runMeasured is an untraced run: set-up, timed units, verification, and
// the end-to-end metrics.
func runMeasured(w scenario, o options) (result, error) {
	setups, err := setupTimes(w)
	defer w.teardown()
	if err != nil {
		return result{}, err
	}
	units := measureUnits(w, o.seconds)
	verr := w.verify(units)
	res := summarize(units, setups, verr)
	logUnits(o, units, setups, verr)
	return res, nil
}

// summarize turns measured units into the end-to-end metrics. A
// verification failure fails every operation of the run.
func summarize(units []unitResult, setups []float64, verr error) result {
	var walls, cpus, rss, evRates, cellRates, lats []float64
	var wallSum float64
	res := result{Correct: verr == nil, Metrics: map[string]metric{}}
	for _, u := range units {
		walls = append(walls, u.wall)
		cpus = append(cpus, u.cpu)
		rss = append(rss, u.rss)
		evRates = append(evRates, float64(u.events)/u.wall)
		cellRates = append(cellRates, float64(u.cells)/u.wall)
		lats = append(lats, u.latencies...)
		wallSum += u.wall
		res.Attempted += u.attempted
		res.Failed += u.failed
	}
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	if verr != nil || res.Failed > 0 {
		res.Correct = false
	}
	if verr != nil {
		res.Failed = res.Attempted
	}
	p99, _ := tail99(lats)
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(setups))
	put("wall_s", "s", median(walls))
	put("cpu_s", "s", median(cpus))
	put("events_per_s", "1/s", median(evRates))
	put("cells_per_s", "1/s", median(cellRates))
	put("peak_rss_mib", "MiB", median(rss))
	put("req_p50_ms", "ms", median(lats))
	put("req_p99_ms", "ms", p99)
	put("req_per_s", "1/s", float64(len(lats))/wallSum)
	return res
}

// logUnits prints a human-readable account of the run before the result
// line.
func logUnits(o options, units []unitResult, setups []float64, verr error) {
	var lats []float64
	for i, u := range units {
		fmt.Printf("unit %d: wall %.3fs cpu %.3fs cells %d events %d requests %d failed %d\n",
			i, u.wall, u.cpu, u.cells, u.events, len(u.latencies), u.failed)
		lats = append(lats, u.latencies...)
	}
	_, which := tail99(lats)
	fmt.Printf("workload %s seed %d: %d units, setups %v, req tail = %s\n", o.workload, o.seed, len(units), setups, which)
	if verr != nil {
		fmt.Printf("verification FAILED: %v\n", verr)
	}
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
