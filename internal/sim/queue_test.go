package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

// --- (time, seq) dispatch-order property ---------------------------------

// refEvent is the sort-based reference model: the queue must dispatch any
// schedule in exactly ascending (time, seq) order.
type refEvent struct {
	at  Time
	seq int
}

// TestQueueDispatchOrderProperty drives randomized schedules — duplicate
// timestamps included — through the engine and checks the dispatch sequence
// against a stable sort on (time, insertion order). Roughly half the events
// also schedule a follow-up from inside their own dispatch, covering the
// schedule-during-dispatch path where the 4-ary sift interleaves with pops.
func TestQueueDispatchOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		e := NewEngine()
		var want []refEvent
		var got []refEvent
		seq := 0
		// add schedules reference event seq (arg.A), which schedules a
		// child when it runs if nested (arg.B == 1).
		var add func(at Time, nested bool)
		rec := HandlerFunc(func(e *Engine, arg EventArg) {
			got = append(got, refEvent{at: e.Now(), seq: int(arg.A)})
			if arg.B == 1 {
				// Child at a delay drawn from the same small range so it
				// collides with already-queued timestamps.
				add(e.Now()+Time(rng.Intn(4)), false)
			}
		})
		add = func(at Time, nested bool) {
			arg := EventArg{A: uint64(seq)}
			if nested {
				arg.B = 1
			}
			want = append(want, refEvent{at: at, seq: seq})
			seq++
			e.CallAt(at, rec, arg)
		}
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			// Small timestamp range forces many exact ties.
			add(Time(rng.Intn(8)), rng.Intn(2) == 0)
		}
		e.Run()
		// The engine assigns seq in At/CallAt order, and nested adds happen
		// in dispatch order, so insertion order in `want` matches engine
		// sequence order. Stable-sort by time only: ties stay in insertion
		// order, which is exactly the (time, seq) contract.
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(got) != len(want) {
			t.Fatalf("trial %d: dispatched %d events, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: dispatch[%d] = %+v, want %+v (full got=%v want=%v)",
					trial, i, got[i], want[i], got, want)
			}
		}
	}
}

// orderRecorder is the deep-queue property's handler: it logs each dispatch
// as (time, id) and, while budget remains, schedules children from inside
// its own dispatch so the queue stays deep and freed slab slots are reused.
type orderRecorder struct {
	rng    *rand.Rand
	want   []refEvent
	got    []refEvent
	budget int
	peak   int
}

func (r *orderRecorder) add(e *Engine, at Time) {
	id := len(r.want)
	r.want = append(r.want, refEvent{at: at, seq: id})
	e.CallAt(at, r, EventArg{A: uint64(id)})
	if p := e.Pending(); p > r.peak {
		r.peak = p
	}
}

func (r *orderRecorder) OnEvent(e *Engine, arg EventArg) {
	r.got = append(r.got, refEvent{at: e.Now(), seq: int(arg.A)})
	// Zero, one or two children (one on average): the depth random-walks
	// around its starting level instead of draining.
	for n := r.rng.Intn(3); n > 0 && r.budget > 0; n-- {
		r.budget--
		r.add(e, e.Now()+Time(r.rng.Intn(32)))
	}
}

// TestQueueDispatchOrderPropertyDeep is the deep-queue variant of
// TestQueueDispatchOrderProperty, at the pending depths of saturated
// figure-6 cells: ~50k events over a few dozen timestamps (so ties run to
// thousands deep), drained in RunUntil steps that interleave fresh batches
// with schedule-during-dispatch, so vacated slab slots are reclaimed while
// the heap is full. Dispatch must match the same stable-sort reference, and
// the slab must stay as long as the peak pending count.
func TestQueueDispatchOrderPropertyDeep(t *testing.T) {
	const depth = 50_000
	e := NewEngine()
	r := &orderRecorder{rng: rand.New(rand.NewSource(7)), budget: 2 * depth}
	for i := 0; i < depth; i++ {
		r.add(e, Time(r.rng.Intn(32)))
	}
	for step := 0; e.Pending() > 0; step++ {
		e.RunUntil(e.Now() + 4)
		for i := 0; step%4 == 0 && i < 1000 && r.budget > 0; i++ {
			r.budget--
			r.add(e, e.Now()+Time(r.rng.Intn(32)))
		}
	}
	if r.peak < depth {
		t.Fatalf("peak pending %d, want >= %d", r.peak, depth)
	}
	if len(e.slab) > r.peak {
		t.Fatalf("slab length %d exceeds peak pending %d after %d events", len(e.slab), r.peak, len(r.want))
	}
	sort.SliceStable(r.want, func(i, j int) bool { return r.want[i].at < r.want[j].at })
	if len(r.got) != len(r.want) {
		t.Fatalf("dispatched %d events, want %d", len(r.got), len(r.want))
	}
	for i := range r.want {
		if r.got[i] != r.want[i] {
			t.Fatalf("dispatch[%d] = %+v, want %+v", i, r.got[i], r.want[i])
		}
	}
}

// --- key layout and tag limits -------------------------------------------

// TestKeyIsPointerFree16Bytes guards the point of the key/slab split: heap
// sifts move 16-byte keys with no pointer words, so the GC never scans the
// heap array and moves pay no write barriers.
func TestKeyIsPointerFree16Bytes(t *testing.T) {
	if size := unsafe.Sizeof(key{}); size != 16 {
		t.Fatalf("unsafe.Sizeof(key{}) = %d, want 16", size)
	}
	kt := reflect.TypeOf(key{})
	for i := 0; i < kt.NumField(); i++ {
		f := kt.Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Fatalf("key.%s has kind %v, want a plain integer (no pointer words)", f.Name, f.Type.Kind())
		}
	}
}

// mustPanic runs f and returns its panic message, failing if f returns.
func mustPanic(t *testing.T, what string, f func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s did not panic", what)
			}
			msg = fmt.Sprint(r)
		}()
		f()
	}()
	return msg
}

func TestPackTagLimits(t *testing.T) {
	if got, want := packTag(maxSeq, maxSlots-1), ^uint64(0); got != want {
		t.Fatalf("packTag(maxSeq, maxSlots-1) = %#x, want %#x", got, want)
	}
	if got := packTag(3, 5); got != 3<<slotBits|5 {
		t.Fatalf("packTag(3, 5) = %#x, want %#x", got, uint64(3<<slotBits|5))
	}
	if msg := mustPanic(t, "packTag(maxSeq+1)", func() { packTag(maxSeq+1, 0) }); !strings.Contains(msg, "event sequence") {
		t.Fatalf("seq overflow panic %q does not name the sequence", msg)
	}
	if msg := mustPanic(t, "packTag(maxSlots)", func() { packTag(1, maxSlots) }); !strings.Contains(msg, "payload slab") {
		t.Fatalf("slot overflow panic %q does not name the slab", msg)
	}
}

// TestScheduleSeqOverflowPanics drives the sequence limit through the
// public API (white-box: the counter is set next to its limit rather than
// scheduling 2^40 events). The last legal sequence still dispatches in
// order; the next schedule panics instead of wrapping.
func TestScheduleSeqOverflowPanics(t *testing.T) {
	e := NewEngine()
	e.seq = maxSeq - 2
	var order []int
	rec := HandlerFunc(func(_ *Engine, arg EventArg) { order = append(order, int(arg.A)) })
	e.ScheduleCall(5, rec, EventArg{A: 1})
	e.ScheduleCall(5, rec, EventArg{A: 2})
	msg := mustPanic(t, "schedule past maxSeq", func() { e.ScheduleCall(5, rec, EventArg{}) })
	if !strings.Contains(msg, "overflows") {
		t.Fatalf("panic %q does not name the overflow", msg)
	}
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("dispatch order at the sequence limit = %v, want [1 2]", order)
	}
}

// holdHandler reschedules itself on every dispatch (the classic hold model),
// keeping the queue at a fixed depth.
type holdHandler struct {
	delays []Duration
	i      int
}

func (h *holdHandler) OnEvent(e *Engine, _ EventArg) {
	h.i++
	e.ScheduleCall(h.delays[h.i%len(h.delays)], h, EventArg{})
}

// BenchmarkEngineHold times schedule+dispatch at a fixed pending depth: 1k
// (a lightly loaded cell) and 80k/200k (the mean and peak depths of
// saturated figure-6 cells). Delays are exponential with a 100 ns mean.
// ns/event is the cost of one pop plus one push; queue-B/pending is the
// memory the key heap, payload slab and free list hold per pending event.
func BenchmarkEngineHold(b *testing.B) {
	rng := NewRNG(1)
	delays := make([]Duration, 4096)
	for i := range delays {
		delays[i] = rng.ExpDuration(100*Nanosecond) + 1
	}
	for _, depth := range []int{1_000, 80_000, 200_000} {
		b.Run(fmt.Sprintf("pending=%dk", depth/1000), func(b *testing.B) {
			e := NewEngine()
			h := &holdHandler{delays: delays}
			for i := 0; i < depth; i++ {
				e.ScheduleCall(delays[(i*7)%len(delays)], h, EventArg{})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.step()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
			bytes := cap(e.keys)*int(unsafe.Sizeof(key{})) +
				cap(e.slab)*int(unsafe.Sizeof(payload{})) +
				cap(e.free)*int(unsafe.Sizeof(uint32(0)))
			b.ReportMetric(float64(bytes)/float64(e.Pending()), "queue-B/pending")
		})
	}
}

// --- RunUntil peek contract ----------------------------------------------

func TestRunUntilEmptyQueue(t *testing.T) {
	// Peeking an empty queue must not panic, and the clock must advance to
	// the deadline.
	e := NewEngine()
	if end := e.RunUntil(100); end != 100 || e.Now() != 100 {
		t.Fatalf("RunUntil(100) on empty queue = %v (Now %v), want 100", end, e.Now())
	}
	// A second call with an earlier deadline is a no-op.
	if end := e.RunUntil(50); end != 100 {
		t.Fatalf("RunUntil(50) after advancing to 100 = %v, want 100", end)
	}
}

func TestRunUntilLeavesFutureEventsQueued(t *testing.T) {
	// The head peek must stop the loop at the first event past the deadline
	// without popping it.
	e := NewEngine()
	var ran countHandler
	e.ScheduleCall(10, &ran, EventArg{})
	e.ScheduleCall(200, &ran, EventArg{})
	e.RunUntil(100)
	if ran != 1 || e.Pending() != 1 {
		t.Fatalf("ran=%d pending=%d after RunUntil(100), want 1/1", ran, e.Pending())
	}
	if e.keys[0].at != 200 {
		t.Fatalf("queue head at %v, want 200 (future event must stay queued)", e.keys[0].at)
	}
	e.RunUntil(300)
	if ran != 2 || e.Pending() != 0 {
		t.Fatalf("ran=%d pending=%d after RunUntil(300), want 2/0", ran, e.Pending())
	}
}

func TestRunUntilStopInsideScheduleCall(t *testing.T) {
	// Stop fired from inside a handler must halt RunUntil after that event:
	// later events stay pending, the clock stays put.
	e := NewEngine()
	h := &recordingHandler{}
	e.ScheduleCall(10, h, EventArg{A: 1})
	e.ScheduleCall(20, stopHandler{}, EventArg{})
	e.ScheduleCall(30, h, EventArg{A: 2})
	end := e.RunUntil(100)
	if end != 20 || e.Now() != 20 {
		t.Fatalf("stopped at %v (Now %v), want 20", end, e.Now())
	}
	if len(h.calls) != 1 || h.calls[0].A != 1 {
		t.Fatalf("handler calls before Stop = %+v, want just A=1", h.calls)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after Stop, want 1", e.Pending())
	}
	e.RunUntil(100)
	if len(h.calls) != 2 || h.calls[1].A != 2 {
		t.Fatalf("handler calls after resume = %+v, want A=1,2", h.calls)
	}
}

// --- handler scheduling API ----------------------------------------------

type recordingHandler struct {
	calls []EventArg
	times []Time
}

func (h *recordingHandler) OnEvent(e *Engine, arg EventArg) {
	h.calls = append(h.calls, arg)
	h.times = append(h.times, e.Now())
}

type stopHandler struct{}

func (stopHandler) OnEvent(e *Engine, _ EventArg) { e.Stop() }

func TestScheduleCallDelivery(t *testing.T) {
	e := NewEngine()
	h := &recordingHandler{}
	payload := &struct{ v int }{v: 7}
	e.ScheduleCall(5, h, EventArg{Ptr: payload, A: 42, B: 99})
	e.Run()
	if len(h.calls) != 1 {
		t.Fatalf("handler ran %d times, want 1", len(h.calls))
	}
	got := h.calls[0]
	if got.Ptr != payload || got.A != 42 || got.B != 99 {
		t.Fatalf("arg = %+v, want Ptr=payload A=42 B=99", got)
	}
	if h.times[0] != 5 {
		t.Fatalf("handler ran at %v, want 5", h.times[0])
	}
}

func TestScheduleCallNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleCall(-1) did not panic")
		}
	}()
	NewEngine().ScheduleCall(-1, stopHandler{}, EventArg{})
}

func TestCallAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleCall(100, stopHandler{}, EventArg{})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("CallAt(past) did not panic")
		}
	}()
	e.CallAt(50, stopHandler{}, EventArg{})
}

// countHandler is pointer-shaped: converting it to Handler never allocates,
// which is what keeps the steady-state ScheduleCall cycle at 0 allocs/op.
type countHandler uint64

func (h *countHandler) OnEvent(*Engine, EventArg) { *h++ }

func TestScheduleCallAllocationFree(t *testing.T) {
	e := NewEngine()
	var h countHandler
	payload := &struct{ v int }{}
	burst := func() {
		for i := 0; i < 8; i++ {
			e.ScheduleCall(Time(i), &h, EventArg{Ptr: payload, A: uint64(i)})
		}
		e.Run()
	}
	burst() // prime the queue capacity
	if allocs := testing.AllocsPerRun(100, burst); allocs > 0 {
		t.Fatalf("ScheduleCall burst allocated %.1f per iteration, want 0", allocs)
	}
	if h == 0 {
		t.Fatal("handler never fired")
	}
}

// BenchmarkEngineScheduleCall measures the steady-state schedule/dispatch
// cycle on a primed engine; it must report 0 allocs/op.
func BenchmarkEngineScheduleCall(b *testing.B) {
	e := NewEngine()
	var h countHandler
	for i := 0; i < 64; i++ {
		e.ScheduleCall(Time(i), &h, EventArg{})
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleCall(Time(i%17), &h, EventArg{A: uint64(i)})
		if i%64 == 63 {
			e.Run()
		}
	}
	e.Run()
}
