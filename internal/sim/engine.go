package sim

import "fmt"

// Handler is the closure-free scheduling target: models implement OnEvent on
// a (usually pointer-shaped) type and schedule it with ScheduleCall, passing
// per-event state through the EventArg instead of capturing it in a closure.
// Converting a pointer to a Handler allocates nothing, so steady-state
// ScheduleCall dispatch runs allocation-free (pinned by a benchmark guard).
//
// Contract: OnEvent runs exactly once, at the event's timestamp, inside the
// engine's single dispatch thread. A handler must not retain arg.Ptr past
// the call unless it owns the pointed-to value (for delivery events the
// packet is handed over and may be reused or dropped afterwards).
type Handler interface {
	OnEvent(e *Engine, arg EventArg)
}

// EventArg carries an event's payload without a closure: one pointer slot
// (typically a *core.Packet) and two scalar slots for small state such as a
// site index, a deadline, or a generation counter. Storing a pointer in Ptr
// does not allocate; storing non-pointer values may, so scalars belong in
// A/B.
type EventArg struct {
	Ptr  any
	A, B uint64
}

// event is a scheduled callback, held by value in the queue. Events are
// compared first by time, then by insertion sequence, which makes execution
// order fully deterministic and independent of the queue's internal layout.
// Exactly one of fn (legacy closure path) and h (closure-free path) is set.
type event struct {
	at  Time
	seq uint64
	fn  func()
	h   Handler
	arg EventArg
}

// before reports whether a dispatches ahead of b: (time, seq) order. seq is
// unique per engine, so the order is total.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// not usable; create one with NewEngine.
//
// The engine is deliberately minimal: models schedule callbacks, the engine
// runs them in (time, sequence) order and exposes the current simulated time.
// There is no process abstraction — every model in this repository is written
// in event-callback style, which keeps runs fast and deterministic.
//
// The queue is an inline 4-ary min-heap over a value slice: no heap.Interface
// dispatch, no per-event boxing, no free list — pushing reuses the slice's
// capacity, so the steady-state schedule/dispatch cycle allocates nothing.
// A 4-ary layout halves the tree depth of a binary heap, trading slightly
// wider sift-down scans (four comparisons per level, all within one cache
// line of siblings) for far fewer levels — the standard shape for
// dispatch-bound event queues.
type Engine struct {
	now     Time
	seq     uint64
	events  []event
	stopped bool
	// executed counts events dispatched since construction; useful both in
	// tests and for reporting simulation effort.
	executed uint64
	// hook, when set, observes every dispatched event (after the clock
	// advances, before the callback runs). It exists for the observability
	// layer (event-rate tracing); a nil hook costs one predictable branch
	// per dispatch and no allocation.
	hook func(at Time)
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events waiting to run.
func (e *Engine) Pending() int { return len(e.events) }

// Executed returns the number of events dispatched so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Schedule runs fn after delay. A negative delay panics: the kernel never
// travels backwards in time. Prefer ScheduleCall on hot paths — Schedule
// typically costs one closure allocation at the call site.
func (e *Engine) Schedule(delay Duration, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.At(e.deadlineFor(delay), fn)
}

// deadlineFor converts a validated non-negative delay into an absolute
// timestamp, catching int64 overflow explicitly. Before this check a huge
// delay (e.g. a misconverted duration) wrapped negative and surfaced as the
// misleading "schedule before now" panic from At/CallAt.
func (e *Engine) deadlineFor(delay Duration) Time {
	t := e.now + delay
	if t < e.now {
		panic(fmt.Sprintf("sim: delay %d ps overflows the time axis (now %v)", int64(delay), e.now))
	}
	return t
}

// At runs fn at absolute time t, which must not precede the current time.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn})
}

// ScheduleCall runs h.OnEvent(e, arg) after delay, without allocating a
// closure. A negative delay panics.
func (e *Engine) ScheduleCall(delay Duration, h Handler, arg EventArg) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.CallAt(e.deadlineFor(delay), h, arg)
}

// CallAt runs h.OnEvent(e, arg) at absolute time t, which must not precede
// the current time.
func (e *Engine) CallAt(t Time, h Handler, arg EventArg) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, h: h, arg: arg})
}

// push appends ev and sifts it up to its heap position.
func (e *Engine) push(ev event) {
	e.events = append(e.events, ev)
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.events[i].before(&e.events[parent]) {
			break
		}
		e.events[i], e.events[parent] = e.events[parent], e.events[i]
		i = parent
	}
}

// popMin removes and returns the root (minimum) event.
func (e *Engine) popMin() event {
	min := e.events[0]
	n := len(e.events) - 1
	e.events[0] = e.events[n]
	// Zero the vacated tail slot so its fn/h/arg pointers do not pin dead
	// objects in the slice's spare capacity.
	e.events[n] = event{}
	e.events = e.events[:n]
	// Sift the relocated root down.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.events[c].before(&e.events[best]) {
				best = c
			}
		}
		if !e.events[best].before(&e.events[i]) {
			break
		}
		e.events[i], e.events[best] = e.events[best], e.events[i]
		i = best
	}
	return min
}

// SetDispatchHook installs (or, with nil, removes) an observer invoked for
// every dispatched event at its timestamp. The hook must not schedule,
// stop, or otherwise drive the engine — it is a read-only probe; the
// observability layer uses it to trace simulation effort over time.
func (e *Engine) SetDispatchHook(fn func(at Time)) { e.hook = fn }

// Stop makes Run and RunUntil return after the current event completes.
// Pending events are retained, so a stopped engine can be resumed.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or Stop is called. It returns
// the time of the last executed event (or the current time if none ran).
func (e *Engine) Run() Time {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		e.step()
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline (if the deadline is in the future) and returns. It
// also honors Stop. The loop peeks the queue head — events[0] is always the
// (time, seq) minimum — so an event scheduled past the deadline stays
// queued untouched.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped && e.events[0].at <= deadline {
		e.step()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

func (e *Engine) step() {
	ev := e.popMin()
	e.now = ev.at
	e.executed++
	if e.hook != nil {
		e.hook(e.now)
	}
	if ev.h != nil {
		ev.h.OnEvent(e, ev.arg)
	} else {
		ev.fn()
	}
}
