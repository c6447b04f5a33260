package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Nanosecond != 1000 {
		t.Fatalf("Nanosecond = %d, want 1000", int64(Nanosecond))
	}
	if Microsecond != 1000*Nanosecond || Millisecond != 1000*Microsecond || Second != 1000*Millisecond {
		t.Fatal("unit ladder broken")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{12800 * Picosecond, "12.800ns"},
		{1500 * Nanosecond, "1.500us"},
		{2500 * Microsecond, "2.500ms"},
		{3 * Second, "3.000s"},
		{-500 * Picosecond, "-500ps"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestFromNanoseconds(t *testing.T) {
	if got := FromNanoseconds(12.8); got != 12800*Picosecond {
		t.Errorf("FromNanoseconds(12.8) = %d, want 12800", int64(got))
	}
	if got := FromNanoseconds(-1.0); got != -1000 {
		t.Errorf("FromNanoseconds(-1) = %d, want -1000", int64(got))
	}
	if got := FromSeconds(1e-9); got != Nanosecond {
		t.Errorf("FromSeconds(1ns) = %d, want %d", int64(got), int64(Nanosecond))
	}
}

func TestNanosecondsRoundTrip(t *testing.T) {
	f := func(ns uint32) bool {
		tm := Time(ns) * Nanosecond
		return FromNanoseconds(tm.Nanoseconds()) == tm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	// Same timestamp: insertion order must win.
	e.Schedule(20, func() { order = append(order, 4) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("Run returned %v, want 30ps", end)
	}
	want := []int{1, 2, 4, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.Schedule(5, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if e.Now() != 99*5 {
		t.Fatalf("Now = %v, want 495ps", e.Now())
	}
	if e.Executed() != 100 {
		t.Fatalf("Executed = %d, want 100", e.Executed())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=25, want 2", len(fired))
	}
	if e.Now() != 25 {
		t.Fatalf("Now = %v, want 25ps", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100ps", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(10, func() { ran++; e.Stop() })
	e.Schedule(20, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("ran = %d after Stop, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	// Resume.
	e.Run()
	if ran != 2 {
		t.Fatalf("ran = %d after resume, want 2", ran)
	}
}

func TestEngineStopInsideEventHaltsRunUntil(t *testing.T) {
	// Stop fired from inside an event must halt RunUntil after the current
	// event, leave later events pending, keep the clock at the stopping
	// event's timestamp, and allow a clean resume.
	e := NewEngine()
	var ran []Time
	e.Schedule(10, func() { ran = append(ran, e.Now()) })
	e.Schedule(20, func() { ran = append(ran, e.Now()); e.Stop() })
	e.Schedule(30, func() { ran = append(ran, e.Now()) })
	e.Schedule(40, func() { ran = append(ran, e.Now()) })
	end := e.RunUntil(100)
	if len(ran) != 2 {
		t.Fatalf("ran %d events before Stop, want 2", len(ran))
	}
	if end != 20 || e.Now() != 20 {
		t.Fatalf("stopped at %v (Now %v), want 20ps — clock must not jump to the deadline", end, e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d after Stop, want 2", e.Pending())
	}
	// Resume: RunUntil clears the stop flag, drains the rest, then advances
	// the clock to the deadline.
	end = e.RunUntil(100)
	if len(ran) != 4 {
		t.Fatalf("ran %d events after resume, want 4", len(ran))
	}
	if end != 100 || e.Pending() != 0 {
		t.Fatalf("resume ended at %v with %d pending, want 100ps/0", end, e.Pending())
	}
}

func TestEngineEventPoolingAllocationFree(t *testing.T) {
	// Once the queue slice has grown to its working capacity, schedule/run
	// cycles must reuse it — the value-typed queue has no per-event
	// allocation to make.
	e := NewEngine()
	fn := func() {}
	burst := func() {
		for i := 0; i < 8; i++ {
			e.Schedule(Time(i), fn)
		}
		e.Run()
	}
	burst() // prime the queue capacity
	allocs := testing.AllocsPerRun(100, burst)
	if allocs > 0 {
		t.Fatalf("schedule/run burst allocated %.1f per iteration, want 0", allocs)
	}
}

func TestEngineQueueReusesCapacity(t *testing.T) {
	// White-box: dispatching must shrink the live queue without releasing
	// its backing array, and the vacated slot must be zeroed so it cannot
	// pin dead callbacks.
	e := NewEngine()
	e.Schedule(0, func() {})
	e.Schedule(1, func() {})
	e.Run()
	if len(e.events) != 0 {
		t.Fatalf("queue length = %d after Run, want 0", len(e.events))
	}
	if cap(e.events) < 2 {
		t.Fatalf("queue capacity = %d after Run, want >= 2 (backing array retained)", cap(e.events))
	}
	for _, ev := range e.events[:cap(e.events)] {
		if ev.fn != nil || ev.h != nil || ev.arg.Ptr != nil {
			t.Fatal("vacated queue slot still holds callback references")
		}
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(-1) did not panic")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestEnginePastAtPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At(past) did not panic")
		}
	}()
	e.At(50, func() {})
}

// The heap must stay consistent under arbitrary interleavings of schedule
// times: events always run in non-decreasing time order.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var seen []Time
		for _, d := range delays {
			e.Schedule(Time(d), func() { seen = append(seen, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestRNGDeriveIndependence(t *testing.T) {
	// Derived streams with different labels must differ from each other and
	// from the parent.
	parent := NewRNG(7)
	c1 := parent.Derive(1)
	c2 := parent.Derive(2)
	same12, sameP := 0, 0
	p := NewRNG(7)
	for i := 0; i < 100; i++ {
		v1, v2 := c1.Int63(), c2.Int63()
		if v1 == v2 {
			same12++
		}
		if v1 == p.Int63() {
			sameP++
		}
	}
	if same12 > 2 || sameP > 2 {
		t.Fatalf("derived streams look correlated: same12=%d sameP=%d", same12, sameP)
	}
}

func TestRNGDerivePure(t *testing.T) {
	// Deriving must not perturb the parent stream: a parent that derived a
	// thousand children stays byte-identical to one that derived none, and
	// the derived seed depends only on (parent seed, label) — never on
	// derivation order or count.
	a, b := NewRNG(7), NewRNG(7)
	for label := int64(0); label < 1000; label++ {
		a.Derive(label)
	}
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("Derive consumed state from the parent stream")
		}
	}
	first := NewRNG(7).Derive(42).Seed()
	busy := NewRNG(7)
	busy.Int63()
	busy.Derive(1)
	busy.Derive(9)
	if got := busy.Derive(42).Seed(); got != first {
		t.Fatalf("Derive(42) seed depends on parent history: %d vs %d", got, first)
	}
}

func TestRNGDeriveGolden(t *testing.T) {
	// Pin the derivation scheme so it cannot drift silently: the harness's
	// seed schedules (and therefore every figure) depend on these values.
	got := []int64{
		NewRNG(1).Derive(0).Seed(),
		NewRNG(1).Derive(1).Seed(),
		NewRNG(2).Derive(0).Seed(),
		DeriveSeed(1),
		DeriveSeed(1, StringLabel("point-to-point"), StringLabel("uniform")),
	}
	want := []int64{
		6755974106381971767, // NewRNG(1).Derive(0)
		6800373970341813976, // NewRNG(1).Derive(1)
		7235116703822611636, // NewRNG(2).Derive(0)
		7266964230113668128, // DeriveSeed(1)
		8059924241067611892, // DeriveSeed(1, "point-to-point", "uniform")
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("golden derivation %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRNGExpDuration(t *testing.T) {
	g := NewRNG(1)
	const mean = 1000 * Picosecond
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		d := g.ExpDuration(mean)
		if d < 1 {
			t.Fatalf("ExpDuration returned %d < 1", int64(d))
		}
		sum += float64(d)
	}
	got := sum / n
	if got < 950 || got > 1050 {
		t.Fatalf("mean of ExpDuration = %.1f, want ~1000", got)
	}
}

func TestRNGBool(t *testing.T) {
	g := NewRNG(3)
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("Bool(0.3) frequency = %.3f", frac)
	}
}

// BenchmarkEngineSchedule measures the steady-state schedule/dispatch cycle
// on a primed engine; with event pooling it runs allocation-free (watch the
// allocs/op column).
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), fn)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i%17), fn)
		if i%64 == 63 {
			e.Run()
		}
	}
	e.Run()
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		var tick func()
		n := 0
		tick = func() {
			n++
			if n < 1000 {
				e.Schedule(Time(n%17), tick)
			}
		}
		e.Schedule(0, tick)
		e.Run()
	}
}

// TestScheduleOverflowPanicsExplicitly is the regression test for the
// Schedule/ScheduleCall overflow bug: a delay that wraps e.now+delay past
// MaxInt64 used to fall through to At/CallAt and panic with the misleading
// "schedule at -… before now" message. It must now name the overflow.
func TestScheduleOverflowPanicsExplicitly(t *testing.T) {
	for _, closure := range []bool{true, false} {
		e := NewEngine()
		// Advance the clock so now+MaxInt64 wraps.
		e.At(10, func() {})
		e.Run()
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("closure=%v: overflowing delay did not panic", closure)
				}
				msg := fmt.Sprint(r)
				if want := "overflows the time axis"; !strings.Contains(msg, want) {
					t.Fatalf("closure=%v: panic %q does not mention %q", closure, msg, want)
				}
			}()
			if closure {
				e.Schedule(Duration(math.MaxInt64), func() {})
			} else {
				var h countHandler
				e.ScheduleCall(Duration(math.MaxInt64), &h, EventArg{})
			}
		}()
	}
}
