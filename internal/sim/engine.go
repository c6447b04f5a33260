package sim

import "fmt"

// Handler is the target of every scheduled event: models implement OnEvent
// on a (usually pointer-shaped) type and schedule it with ScheduleCall or
// CallAt, passing per-event state through the EventArg instead of capturing
// it in a closure.
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

// HandlerFunc adapts a function to a Handler, as http.HandlerFunc does for
// http.Handler. It suits tests and one-off events; a capturing closure
// allocates, so hot paths implement OnEvent on a pointer-shaped type.
type HandlerFunc func(e *Engine, arg EventArg)

// OnEvent calls f(e, arg).
func (f HandlerFunc) OnEvent(e *Engine, arg EventArg) { f(e, arg) }

// payload is a scheduled event, parked in the engine's slab while its key
// waits in the heap.
type payload struct {
	h   Handler
	arg EventArg
}

// key is one heap entry: the event's timestamp and a tag packing its
// insertion sequence above its slab slot (see packTag). It holds no pointer
// words, so heap sifts are plain 16-byte moves that the garbage collector
// neither scans nor fences with write barriers.
type key struct {
	at  Time
	tag uint64
}

// before reports whether a dispatches ahead of b: (time, seq) order. seq
// occupies the tag's high bits and is unique per engine, so comparing tags
// is comparing sequences and the order is total.
func (a key) before(b key) bool {
	return a.at < b.at || (a.at == b.at && a.tag < b.tag)
}

// Tag layout: seq<<slotBits | slot. 24 slot bits allow 16,777,216 events
// pending at once; the remaining 40 bits number 2^40-1 schedules per engine
// (about 60 hours of dispatch at 5M events/s).
const (
	slotBits = 24
	maxSlots = 1 << slotBits
	maxSeq   = 1<<(64-slotBits) - 1
)

// packTag builds the heap tag for the event numbered seq parked in slab
// slot. Both limits panic by name rather than wrapping into a tag that
// would silently reorder or alias pending events.
func packTag(seq uint64, slot int) uint64 {
	if seq > maxSeq {
		panic(fmt.Sprintf("sim: event sequence %d overflows the %d-bit tag field", seq, 64-slotBits))
	}
	if slot >= maxSlots {
		panic(fmt.Sprintf("sim: %d pending events exceed the %d-slot payload slab", slot+1, maxSlots))
	}
	return seq<<slotBits | uint64(slot)
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// not usable; create one with NewEngine.
//
// The engine is deliberately minimal: models schedule callbacks, the engine
// runs them in (time, sequence) order and exposes the current simulated time.
// There is no process abstraction — every model in this repository is written
// in event-callback style, which keeps runs fast and deterministic.
//
// The queue is split in two. An inline 4-ary min-heap orders pointer-free
// 16-byte keys {at, seq<<24 | slot}; the 48-byte {handler, arg} payloads sit
// still in a slab indexed by slot, and a LIFO free list of vacated slots
// lets the slab stay as long as the peak pending count. Sifts therefore move
// only keys, never handlers or packet pointers, so they copy a quarter of
// the bytes of a combined element and pay no GC write barriers. Every slice reuses its capacity, so
// the steady-state schedule/dispatch cycle allocates nothing. A 4-ary layout
// halves the tree depth of a binary heap, trading slightly wider sift-down
// scans (four comparisons per level, over 64 contiguous bytes of sibling
// keys) for far fewer levels — the standard shape for dispatch-bound event
// queues.
type Engine struct {
	now     Time
	seq     uint64
	keys    []key
	slab    []payload
	free    []uint32
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
func (e *Engine) Pending() int { return len(e.keys) }

// Executed returns the number of events dispatched so far.
func (e *Engine) Executed() uint64 { return e.executed }

// ScheduleCall runs h.OnEvent(e, arg) after delay. A negative delay panics:
// the kernel never travels backwards in time. So does a delay that wraps
// the time axis, by name rather than as a misleading "before now".
func (e *Engine) ScheduleCall(delay Duration, h Handler, arg EventArg) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	t := e.now + delay
	if t < e.now {
		panic(fmt.Sprintf("sim: delay %d ps overflows the time axis (now %v)", int64(delay), e.now))
	}
	e.CallAt(t, h, arg)
}

// CallAt runs h.OnEvent(e, arg) at absolute time t, which must not precede
// the current time.
func (e *Engine) CallAt(t Time, h Handler, arg EventArg) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.push(t, payload{h: h, arg: arg})
}

// push parks p in a slab slot (the most recently freed one, else a new one),
// takes the next sequence number, and sifts the key up to its heap position.
func (e *Engine) push(t Time, p payload) {
	var slot int
	if n := len(e.free); n > 0 {
		slot = int(e.free[n-1])
		e.free = e.free[:n-1]
		e.slab[slot] = p
	} else {
		slot = len(e.slab)
		e.slab = append(e.slab, p)
	}
	e.seq++
	k := key{at: t, tag: packTag(e.seq, slot)}
	// Sift up by moving parents into the hole, writing k once at the end.
	i := len(e.keys)
	e.keys = append(e.keys, k)
	keys := e.keys
	for i > 0 {
		parent := (i - 1) / 4
		if !k.before(keys[parent]) {
			break
		}
		keys[i] = keys[parent]
		i = parent
	}
	keys[i] = k
}

// popMin removes the root (minimum) key, then takes its payload out of the
// slab: the slot is zeroed, so it pins no dead packet or handler, and
// returned to the free list before the callback runs.
func (e *Engine) popMin() (Time, payload) {
	keys := e.keys
	top := keys[0]
	n := len(keys) - 1
	last := keys[n]
	keys = keys[:n]
	e.keys = keys
	// Sift the former tail down from the root by moving the smallest child
	// into the hole, writing it once at the end.
	if n > 0 {
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			best := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if keys[c].before(keys[best]) {
					best = c
				}
			}
			if !keys[best].before(last) {
				break
			}
			keys[i] = keys[best]
			i = best
		}
		keys[i] = last
	}
	slot := uint32(top.tag & (maxSlots - 1))
	p := e.slab[slot]
	e.slab[slot] = payload{}
	e.free = append(e.free, slot)
	return top.at, p
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
	for len(e.keys) > 0 && !e.stopped {
		e.step()
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline (if the deadline is in the future) and returns. It
// also honors Stop. The loop peeks the heap root — keys[0] is always the
// (time, seq) minimum — so an event scheduled past the deadline stays
// queued untouched.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for len(e.keys) > 0 && !e.stopped && e.keys[0].at <= deadline {
		e.step()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

func (e *Engine) step() {
	at, p := e.popMin()
	e.now = at
	e.executed++
	if e.hook != nil {
		e.hook(e.now)
	}
	p.h.OnEvent(e, p.arg)
}
