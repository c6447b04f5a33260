package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
)

// bound is one end-to-end metric's regression rule from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

// sideStats summarizes one side's runs of one metric.
type sideStats struct {
	n          int
	q1, q2, q3 float64
}

func summarizeSide(xs []float64) sideStats {
	q1, q2, q3 := quartiles(xs)
	return sideStats{n: len(xs), q1: q1, q2: q2, q3: q3}
}

// verdict applies the A/B acceptance rule to paired runs of one metric:
//   - better: the head wins at least nine tenths of the pairs (ties count
//     for neither) and the medians differ by more than the base's own
//     interquartile spread;
//   - unresolved: the base's spread is wider than the bound, unless every
//     head run beats every base run;
//   - worse: the head's median is worse than the base's by more than the
//     bound;
//   - within bound: otherwise.
//
// bnd < 0 means the metric has no bound (per-layer): only better and
// "no bound" are reported.
func verdict(base, head []float64, lowerIsBetter bool, bnd float64) string {
	b, h := summarizeSide(base), summarizeSide(head)
	gain := h.q2 - b.q2
	if lowerIsBetter {
		gain = -gain
	}
	if winFraction(base, head, lowerIsBetter) >= 0.9 && gain > b.q3-b.q1 {
		return "better"
	}
	if bnd < 0 {
		return "no bound"
	}
	if b.q2 != 0 && (b.q3-b.q1)/math.Abs(b.q2) > bnd && !allBetter(base, head, lowerIsBetter) {
		return "unresolved"
	}
	if b.q2 != 0 && -gain/math.Abs(b.q2) > bnd {
		return "worse"
	}
	return "within bound"
}

// allBetter reports whether every head value beats every base value.
func allBetter(base, head []float64, lowerIsBetter bool) bool {
	if len(base) == 0 || len(head) == 0 {
		return false
	}
	bs, hs := sorted(base), sorted(head)
	if lowerIsBetter {
		return hs[len(hs)-1] < bs[0]
	}
	return hs[0] > bs[len(bs)-1]
}

// readRecords loads a --record file.
func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series collects, per workload and metric, each run's value in file
// order; traced and untraced runs are kept apart.
func series(recs []runRecord, traced bool) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		if r.Trace != traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// compareMain is `perfbench compare [-bench BENCHMARK.json] base.jsonl
// head.jsonl`: per workload and metric it prints each side's median and
// quartiles, the head's pair-win fraction and a verdict. It exits 1 when
// any end-to-end metric is worse than its bound.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] base.jsonl head.jsonl")
		return 2
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	head, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	warnEnv(base, head)
	worse := false
	for _, traced := range []bool{false, true} {
		rules := spec.EndToEnd
		if traced {
			rules = spec.PerLayer
		}
		bs, hs := series(base, traced), series(head, traced)
		for _, wl := range sortedKeys(bs) {
			if hs[wl] == nil {
				continue
			}
			fmt.Printf("\n%s (%s)\n", wl, map[bool]string{false: "end-to-end", true: "per-layer, traced"}[traced])
			fmt.Printf("  %-38s %26s %26s %6s  %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "verdict")
			for _, rule := range rules {
				b, h := bs[wl][rule.Name], hs[wl][rule.Name]
				if len(b) == 0 || len(h) == 0 {
					continue
				}
				lower := rule.Better == "lower"
				bnd := rule.Bound
				if traced {
					bnd = -1
				}
				v := verdict(b, h, lower, bnd)
				worse = worse || v == "worse"
				sb, sh := summarizeSide(b), summarizeSide(h)
				fmt.Printf("  %-38s %26s %26s %5.0f%%  %s\n", rule.Name+" ("+rule.Unit+")",
					fmtSide(sb), fmtSide(sh), 100*winFraction(b, h, lower), v)
			}
		}
	}
	if worse {
		return 1
	}
	return 0
}

func fmtSide(s sideStats) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", s.q2, s.q1, s.q3, s.n)
}

// warnEnv notes when the two sides ran on different machines or
// toolchains, which voids a same-machine A/B.
func warnEnv(base, head []runRecord) {
	envs := map[string]bool{}
	for _, r := range append(append([]runRecord(nil), base...), head...) {
		envs[fmt.Sprintf("%d cores, GOMAXPROCS %d, %s, %s", r.Env.NProc, r.Env.GOMAXPROCS, r.Env.CPU, r.Env.GoVersion)] = true
	}
	keys := sortedKeys(envs)
	if len(keys) > 1 {
		fmt.Printf("warning: runs come from %d environments: %s\n", len(keys), strings.Join(keys, "; "))
	} else if len(keys) == 1 {
		fmt.Printf("environment: %s\n", keys[0])
	}
}
