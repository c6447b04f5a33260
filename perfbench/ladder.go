package main

import (
	"strings"

	"macrochip/internal/core"
	"macrochip/internal/harness"
	"macrochip/internal/networks"
	"macrochip/internal/sim"
)

// The layer ladder: small instances of the workloads that measure the
// layers a traced workload does not reach itself, so every per-layer
// figure of a traced run is measured. The same instances are the unit
// tests' smoke sizes.

// tinyFig6 is a figure-6 base config with 20 ns / 60 ns windows.
func tinyFig6(seed int64) harness.LoadPointConfig {
	cfg := harness.DefaultLoadPointConfig()
	cfg.Seed = seed
	cfg.Warmup, cfg.Measure = 20*sim.Nanosecond, 60*sim.Nanosecond
	return cfg
}

// tinyScale is the smallest useful coherence-study scale.
const tinyScale = 0.002

// tinyInference is one graph on two networks.
func tinyInference(seed int64) harness.InferenceConfig {
	return harness.InferenceConfig{Params: core.DefaultParams(), Networks: networks.Six()[:2],
		Graphs: []string{"decode-attention"}, Seed: seed}
}

// ladderStep measures one layer. It runs when the traced workload left
// probe at 0, and fills those of its metrics — the ones starting with
// prefix, and extra — that are still 0.
type ladderStep struct {
	probe, prefix string
	extra         []string
	name          string
	make          func() scenario
}

func ladder(o options) []ladderStep {
	tinySweep := func() scenario { return &fig6Sweep{o: o, base: tinyFig6(o.seed)} }
	return []ladderStep{
		{"runner.busy_frac", "runner.", []string{"expcache.self_s", "cell.self_s"}, "fig6-sweep", tinySweep},
		{"expcache.put_us", "expcache.", nil, "fig6-sweep", tinySweep},
		{"dist.dispatched", "dist.", nil, "dist-sweep", func() scenario {
			return &distSweep{o: o, fig: tinyFig6(o.seed), scale: tinyScale, inf: tinyInference(o.seed)}
		}},
		{"server.submit_ms", "server.", nil, "daemon-mixed", func() scenario { return &daemonMixed{o: o} }},
	}
}

// fills reports whether the step supplies metric k.
func (s ladderStep) fills(k string) bool {
	if strings.HasPrefix(k, s.prefix) {
		return true
	}
	for _, e := range s.extra {
		if k == e {
			return true
		}
	}
	return false
}

// ladderCells adds small cells of every kind cells lacks, for the serial
// per-kind sample.
func ladderCells(cells []cell, seed int64) []cell {
	have := map[string]bool{}
	for _, c := range cells {
		have[c.kind] = true
	}
	var out []cell
	if !have[kindLoadPoint] {
		out = append(out, fig6Cells(quickFig6(seed), 3)...)
	}
	if !have[kindBenchCell] {
		out = append(out, studyCells(core.DefaultParams(), tinyScale, seed)...)
	}
	if !have[kindInference] {
		out = append(out, inferenceCells(tinyInference(seed))...)
	}
	return out
}
