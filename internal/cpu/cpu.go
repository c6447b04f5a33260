// Package cpu implements the trace-driven multiprocessor core model of the
// paper's macrochip CPU simulator (§5): 512 in-order cores (8 per site)
// whose instruction streams generate L2 misses with coherence information.
// Misses issue without blocking the core — the trace keeps retiring — until
// the site's finite MSHRs are exhausted, at which point the core stalls
// waiting for an MSHR. Benchmark runtime is the time for every core to
// retire its instruction quota and for all outstanding coherence operations
// to drain; network speedups (figure 7) are runtime ratios.
package cpu

import (
	"slices"

	"macrochip/internal/coherence"
	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
)

// Mix is a coherence sharing mix (§5): the probability that a miss hits a
// block with sharers, how many, and how often the shared case is a write
// (invalidation fan-out) rather than a dirty-owner forward.
type Mix struct {
	Name string
	// PSharers is the probability a coherence request finds sharers.
	PSharers float64
	// NSharers is the number of sharers when present.
	NSharers int
	// InvalidateFrac is the fraction of shared-case misses that are writes
	// requiring invalidations (the rest are read forwards).
	InvalidateFrac float64
}

// LessSharing is the paper's "LS" mix: 90% of coherence requests have no
// sharers.
var LessSharing = Mix{Name: "LS", PSharers: 0.10, NSharers: 1, InvalidateFrac: 0.5}

// MoreSharing is the paper's "MS" mix: 40% of requests have three sharers,
// producing the invalidate/ack-heavy traffic that punishes arbitrated
// networks (§6.2).
var MoreSharing = Mix{Name: "MS", PSharers: 0.40, NSharers: 3, InvalidateFrac: 1.0}

// Benchmark describes one workload for the coherence-driven study.
type Benchmark struct {
	Name string
	// MissPerInstr is the L2 miss rate per instruction (0.04 for the
	// synthetic benchmarks).
	MissPerInstr float64
	// Mix is the sharing mix driving the protocol.
	Mix Mix
	// Pattern chooses the home site of each missed block relative to the
	// requester.
	Pattern traffic.Pattern
	// InstrPerCore is each core's instruction quota.
	InstrPerCore int
}

// Result summarizes one (benchmark, network) simulation.
type Result struct {
	Benchmark string
	Network   string
	// Runtime is the simulated execution time.
	Runtime sim.Time
	// Ops and LatencyPerOp give figure 8's metric.
	Ops          uint64
	LatencyPerOp sim.Time
	MaxLatency   sim.Time
	// Stats is the network's statistics sink (drives the energy model).
	Stats *core.Stats
}

// Run executes the benchmark over the given network and returns the result.
// The network must share the provided engine and stats sink. An optional
// memory backend (variadic; at most one) attaches off-package main memory.
func Run(b Benchmark, eng *sim.Engine, p core.Params, net core.Network, stats *core.Stats, seed int64, mem ...coherence.MemoryBackend) Result {
	coh := coherence.NewEngine(eng, p, net)
	if len(mem) > 0 && mem[0] != nil {
		coh.SetMemory(mem[0])
	}
	root := sim.NewRNG(seed)
	sites := p.Grid.Sites()

	var done int
	totalCores := sites * p.CoresPerSite

	for s := 0; s < sites; s++ {
		for c := 0; c < p.CoresPerSite; c++ {
			cr := &coreState{
				site:   geometry.SiteID(s),
				rng:    root.Derive(int64(s*p.CoresPerSite + c)),
				remain: b.InstrPerCore,
				bench:  b,
				p:      p,
				eng:    eng,
				coh:    coh,
				onDone: func() { done++ },
			}
			cr.onIssued = cr.execute
			cr.execute()
		}
	}
	eng.Run()
	if done != totalCores {
		panic("cpu: benchmark ended with unfinished cores")
	}
	return Result{
		Benchmark:    b.Name,
		Network:      net.Name(),
		Runtime:      eng.Now(),
		Ops:          coh.Completed,
		LatencyPerOp: coh.MeanLatency(),
		MaxLatency:   coh.MaxLatency,
		Stats:        stats,
	}
}

// coreState is one in-order core walking its synthetic trace.
type coreState struct {
	site   geometry.SiteID
	rng    *sim.RNG
	remain int
	bench  Benchmark
	p      core.Params
	eng    *sim.Engine
	coh    *coherence.Engine
	onDone func()
	// onIssued is c.execute bound once at construction: every miss hands
	// the same func value to coherence.Op.OnIssued instead of allocating
	// a fresh closure.
	onIssued func()
}

// execute runs the next trace segment: a run of hit instructions followed
// by one miss (or the final run to the quota).
func (c *coreState) execute() {
	if c.remain <= 0 {
		c.onDone()
		return
	}
	// Geometric miss spacing with mean 1/MissPerInstr, capped at the
	// remaining quota.
	gap := c.remain
	if c.bench.MissPerInstr > 0 {
		if g := c.rng.Geometric(1.0 / c.bench.MissPerInstr); g < gap {
			gap = g
		}
	}
	c.remain -= gap
	execTime := c.p.Cycles(gap)
	c.eng.ScheduleCall(execTime, c, sim.EventArg{})
}

// OnEvent ends the trace segment scheduled by execute: the core either
// finishes its quota or issues the miss that closed the segment.
func (c *coreState) OnEvent(*sim.Engine, sim.EventArg) {
	if c.remain <= 0 {
		c.onDone()
		return
	}
	c.issueMiss()
}

// issueMiss builds the coherence operation for this miss and hands it to
// the protocol engine. The core resumes its trace as soon as the operation
// holds an MSHR; it does not wait for completion (misses overlap up to the
// MSHR limit).
func (c *coreState) issueMiss() {
	home := c.bench.Pattern.Dest(c.site, c.rng)
	op := &coherence.Op{
		Requester: c.site,
		Home:      home,
		OnIssued:  c.onIssued,
	}
	mix := c.bench.Mix
	if mix.PSharers > 0 && c.rng.Bool(mix.PSharers) {
		op.Sharers = c.pickSharers(home, mix.NSharers)
		op.Write = c.rng.Bool(mix.InvalidateFrac)
	}
	c.coh.Issue(op)
}

// pickSharers selects k distinct sharer sites different from the requester
// and the home. k is at most a few (the mixes use 1 and 3), so a rejected
// draw is found by scanning the sites already excluded rather than through
// a per-miss set.
func (c *coreState) pickSharers(home geometry.SiteID, k int) []geometry.SiteID {
	sites := c.p.Grid.Sites()
	if k > sites-2 {
		k = sites - 2
	}
	chosen := make([]geometry.SiteID, 0, k)
	for len(chosen) < k {
		s := geometry.SiteID(c.rng.Intn(sites))
		if s == c.site || s == home || slices.Contains(chosen, s) {
			continue
		}
		chosen = append(chosen, s)
	}
	return chosen
}
