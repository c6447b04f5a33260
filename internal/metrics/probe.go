package metrics

import (
	"fmt"

	"macrochip/internal/sim"
)

// Probe periodically snapshots every gauge and counter in a Registry into
// time series, scheduled as ordinary sim.Engine events so samples land at
// deterministic simulated times and interleave reproducibly with model
// events (probe callbacks only read state, so the model's own event order
// is unperturbed and instrumented results are byte-identical to
// un-instrumented ones).
//
// An optional seeded jitter de-phases the sampling grid from periodic
// model behavior (slot clocks, token round trips) that a fixed-interval
// probe would alias against. The jitter stream derives purely from
// (seed, "metrics-probe") via sim.DeriveSeed, so it never consumes model
// randomness and a jittered probe is itself reproducible.
type Probe struct {
	eng      *sim.Engine
	reg      *Registry
	interval sim.Duration
	// jitter is the fraction of the interval (0..1) each gap may stretch
	// by; 0 samples on the exact grid.
	jitter float64
	rng    *sim.RNG
	// until is the horizon set by Start: the last tick lands at or before it.
	until sim.Time

	// Samples counts completed sampling ticks.
	Samples int
}

// NewProbe returns a probe sampling reg every interval. It panics on a
// non-positive interval or nil registry: a probe without a sink is a
// configuration error, not a disabled layer (disable by not creating one).
func NewProbe(eng *sim.Engine, reg *Registry, interval sim.Duration) *Probe {
	if reg == nil {
		panic("metrics: NewProbe with nil registry")
	}
	if interval <= 0 {
		panic(fmt.Sprintf("metrics: probe interval %v", interval))
	}
	return &Probe{eng: eng, reg: reg, interval: interval}
}

// WithJitter enables seeded sampling jitter: each inter-sample gap becomes
// interval × (1 + u·frac) with u uniform in [0,1). Returns the probe for
// chaining.
func (p *Probe) WithJitter(frac float64, seed int64) *Probe {
	if frac < 0 || frac >= 1 {
		panic(fmt.Sprintf("metrics: probe jitter fraction %v", frac))
	}
	p.jitter = frac
	if frac > 0 {
		p.rng = sim.NewRNG(sim.DeriveSeed(seed, sim.StringLabel("metrics-probe")))
	}
	return p
}

// Start schedules sampling ticks from one interval after now until (and
// including ticks at) the given horizon. Call before Engine.Run.
func (p *Probe) Start(until sim.Time) {
	p.until = until
	p.scheduleNext()
}

func (p *Probe) scheduleNext() {
	gap := p.interval
	if p.rng != nil {
		gap += sim.Duration(p.rng.Float64() * p.jitter * float64(p.interval))
	}
	p.eng.ScheduleCall(gap, p, sim.EventArg{})
}

// OnEvent implements sim.Handler: one sampling tick.
func (p *Probe) OnEvent(e *sim.Engine, _ sim.EventArg) {
	if e.Now() > p.until {
		return
	}
	p.reg.sampleAll(e.Now())
	p.Samples++
	p.scheduleNext()
}
