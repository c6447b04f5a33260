package fault

import (
	"macrochip/internal/sim"
)

// Injector binds a Plan to an engine and a decorated Network: Install
// schedules every failure at its onset and every repair at its repair
// time, so the active fault set evolves as the simulation runs. Install
// must be called before the engine advances past the plan's first onset
// (normally: right after construction, before Run).
type Injector struct {
	eng  *sim.Engine
	net  *Network
	plan Plan

	installed bool
	// Fired counts fault onsets whose activation event has run.
	Fired int
	// Repaired counts completed repairs.
	Repaired int
}

// NewInjector returns an injector for the plan.
func NewInjector(eng *sim.Engine, net *Network, plan Plan) *Injector {
	return &Injector{eng: eng, net: net, plan: plan}
}

// Count reports the number of planned fault events.
func (in *Injector) Count() int { return len(in.plan.Events) }

// Install schedules the plan's failure and repair events. It is
// idempotent-hostile by design: installing twice would double every fault,
// so a second call panics.
func (in *Injector) Install() {
	if in.installed {
		panic("fault: Injector.Install called twice")
	}
	in.installed = true
	for i, ev := range in.plan.Events {
		in.eng.CallAt(ev.At, in, sim.EventArg{A: uint64(i)})
		in.eng.CallAt(ev.Repair, in, sim.EventArg{A: uint64(i), B: 1})
	}
}

// OnEvent implements sim.Handler: arg.A indexes the plan's events, and
// arg.B is 0 for the failure's onset and 1 for its repair.
func (in *Injector) OnEvent(_ *sim.Engine, arg sim.EventArg) {
	ev := in.plan.Events[arg.A]
	if arg.B == 0 {
		in.net.apply(ev)
		in.Fired++
		return
	}
	in.net.clear(ev)
	in.Repaired++
}
