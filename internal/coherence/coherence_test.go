package coherence_test

import (
	"testing"

	"macrochip/internal/coherence"
	"macrochip/internal/core"
	"macrochip/internal/fault"
	"macrochip/internal/geometry"
	"macrochip/internal/networks/ptp"
	"macrochip/internal/sim"
)

func setup() (*sim.Engine, core.Params, *coherence.Engine) {
	eng := sim.NewEngine()
	p := core.DefaultParams()
	st := core.NewStats(0)
	net := ptp.New(eng, p, st)
	return eng, p, coherence.NewEngine(eng, p, net)
}

func TestMessagesCount(t *testing.T) {
	cases := []struct {
		op   coherence.Op
		want int
	}{
		{coherence.Op{}, 2},
		{coherence.Op{Sharers: []geometry.SiteID{3}, Write: false}, 3},
		{coherence.Op{Sharers: []geometry.SiteID{3, 4, 5}, Write: true}, 8},
		{coherence.Op{Sharers: []geometry.SiteID{3}, Write: true}, 4},
	}
	for _, c := range cases {
		if got := c.op.Messages(); got != c.want {
			t.Errorf("Messages(%v sharers, write=%v) = %d, want %d",
				len(c.op.Sharers), c.op.Write, got, c.want)
		}
	}
}

func TestUnsharedMissLatency(t *testing.T) {
	eng, p, coh := setup()
	var lat sim.Time
	coh.Issue(&coherence.Op{
		Requester: p.Grid.Site(0, 0), Home: p.Grid.Site(0, 1),
		OnComplete: func(l sim.Time) { lat = l },
	})
	eng.Run()
	// Request 16 B at 5 GB/s (3.2 ns) + prop 0.225 + directory 2 ns +
	// data 72 B (14.4 ns) + prop 0.225.
	want := sim.FromNanoseconds(3.2+0.225+2+14.4) + sim.FromNanoseconds(0.225)
	if lat != want {
		t.Fatalf("unshared miss latency = %v, want %v", lat, want)
	}
	if coh.Completed != 1 {
		t.Fatalf("completed = %d", coh.Completed)
	}
}

func TestDirtyOwnerForward(t *testing.T) {
	eng, p, coh := setup()
	g := p.Grid
	var lat sim.Time
	coh.Issue(&coherence.Op{
		Requester: g.Site(0, 0), Home: g.Site(0, 1),
		Sharers: []geometry.SiteID{g.Site(0, 2)}, Write: false,
		OnComplete: func(l sim.Time) { lat = l },
	})
	eng.Run()
	// Request (3.2 + 0.225) + dir 2 + forward 16 B home→owner (3.2 +
	// 0.225) + data owner→requester (14.4 + 0.45).
	want := sim.FromNanoseconds(3.2 + 0.225 + 2 + 3.2 + 0.225 + 14.4 + 0.45)
	if lat != want {
		t.Fatalf("forward latency = %v, want %v", lat, want)
	}
}

func TestInvalidationWaitsForAllAcks(t *testing.T) {
	eng, p, coh := setup()
	g := p.Grid
	// Requester at (0,0), home adjacent, sharers at increasing distances:
	// completion is gated by the farthest ack.
	var lat sim.Time
	sharers := []geometry.SiteID{g.Site(0, 2), g.Site(3, 3), g.Site(7, 7)}
	coh.Issue(&coherence.Op{
		Requester: g.Site(0, 0), Home: g.Site(0, 1),
		Sharers: sharers, Write: true,
		OnComplete: func(l sim.Time) { lat = l },
	})
	eng.Run()
	// Completion is gated by the slower of the data reply and the farthest
	// ack chain. Here the 72 B data serialization dominates: request (3.2 +
	// 0.225) + directory 2 + data (14.4 + 0.225). The farthest ack chain
	// (inv 3.2 + 2.925, ack 3.2 + 3.15 = 12.475 ns after the directory)
	// finishes earlier.
	reqPhase := sim.FromNanoseconds(3.2 + 0.225 + 2)
	data := reqPhase + sim.FromNanoseconds(14.4+0.225)
	ackChain := reqPhase + sim.FromNanoseconds(3.2+2.925+3.2+3.15)
	want := data
	if ackChain > want {
		want = ackChain
	}
	if lat != want {
		t.Fatalf("invalidation latency = %v, want %v", lat, want)
	}
}

func TestOnIssuedFiresBeforeCompletion(t *testing.T) {
	eng, p, coh := setup()
	var issuedAt, doneAt sim.Time = -1, -1
	coh.Issue(&coherence.Op{
		Requester: p.Grid.Site(0, 0), Home: p.Grid.Site(4, 4),
		OnIssued:   func() { issuedAt = eng.Now() },
		OnComplete: func(sim.Time) { doneAt = eng.Now() },
	})
	eng.Run()
	if issuedAt != 0 {
		t.Fatalf("issued at %v, want 0 (MSHR free)", issuedAt)
	}
	if doneAt <= issuedAt {
		t.Fatal("completion did not follow issue")
	}
}

func TestMSHRLimitQueues(t *testing.T) {
	eng := sim.NewEngine()
	p := core.DefaultParams()
	p.MSHRsPerSite = 2
	st := core.NewStats(0)
	net := ptp.New(eng, p, st)
	coh := coherence.NewEngine(eng, p, net)
	issued := 0
	completed := 0
	for i := 0; i < 5; i++ {
		coh.Issue(&coherence.Op{
			Requester: 0, Home: geometry.SiteID(i + 1),
			OnIssued:   func() { issued++ },
			OnComplete: func(sim.Time) { completed++ },
		})
	}
	if issued != 2 {
		t.Errorf("issued %d immediately, want 2 (MSHR limit)", issued)
	}
	if got := coh.QueuedAt(0); got != 3 {
		t.Errorf("queued = %d, want 3", got)
	}
	if got := coh.OutstandingAt(0); got != 2 {
		t.Errorf("outstanding = %d, want 2", got)
	}
	eng.Run()
	if issued != 5 || completed != 5 {
		t.Fatalf("issued=%d completed=%d, want 5/5", issued, completed)
	}
	if coh.QueuedAt(0) != 0 || coh.OutstandingAt(0) != 0 {
		t.Fatal("MSHR accounting did not drain")
	}
}

func TestLatencyAccounting(t *testing.T) {
	eng, p, coh := setup()
	for i := 1; i <= 3; i++ {
		coh.Issue(&coherence.Op{Requester: 0, Home: geometry.SiteID(i)})
	}
	eng.Run()
	if coh.Completed != 3 {
		t.Fatalf("completed = %d", coh.Completed)
	}
	if coh.MeanLatency() <= 0 || coh.MaxLatency < coh.MeanLatency() {
		t.Fatalf("latency stats implausible: mean=%v max=%v", coh.MeanLatency(), coh.MaxLatency)
	}
	_ = p
}

// faultySetup builds a coherence engine over a fault-wrapped point-to-point
// network with delivery timeouts enabled.
func faultySetup(timeoutCycles, maxRetries int) (*sim.Engine, core.Params, *core.Stats, *fault.Network, *coherence.Engine) {
	eng := sim.NewEngine()
	p := core.DefaultParams()
	p.CoherenceTimeoutCycles = timeoutCycles
	p.CoherenceMaxRetries = maxRetries
	st := core.NewStats(0)
	fnet := fault.Wrap(eng, p, ptp.New(eng, p, st), 11)
	coh := coherence.NewEngine(eng, p, fnet)
	coh.SetRetrySeed(11)
	return eng, p, st, fnet, coh
}

func TestRetryRecoversFromPacketLoss(t *testing.T) {
	// The requester→home path is stuck when the request launches; the
	// first attempt is dropped. The path repairs before the retry, so the
	// operation must complete via retransmission instead of hanging.
	eng, p, st, fnet, coh := faultySetup(1000, 8) // 1000 cycles = 200 ns timeout
	var lat sim.Time = -1
	fnet.StickPath(0, 1)
	coh.Issue(&coherence.Op{
		Requester: 0, Home: 1,
		OnComplete: func(l sim.Time) { lat = l },
	})
	eng.CallAt(100*sim.Nanosecond, sim.HandlerFunc(func(*sim.Engine, sim.EventArg) { fnet.RepairPath(0, 1) }), sim.EventArg{})
	eng.Run()
	if lat < 0 {
		t.Fatal("operation never completed under packet loss")
	}
	if coh.Retries == 0 || st.Retries == 0 {
		t.Fatalf("retries = %d/%d, want > 0", coh.Retries, st.Retries)
	}
	if coh.Aborted != 0 || st.Aborts != 0 {
		t.Fatalf("spurious aborts: %d/%d", coh.Aborted, st.Aborts)
	}
	if coh.Completed != 1 {
		t.Fatalf("completed = %d", coh.Completed)
	}
	if st.Dropped == 0 {
		t.Fatal("nothing was dropped — the fault never bit")
	}
	// Latency must span at least one full timeout.
	if lat < p.Cycles(p.CoherenceTimeoutCycles) {
		t.Fatalf("latency %v below one timeout %v", lat, p.Cycles(p.CoherenceTimeoutCycles))
	}
}

func TestRetryExhaustionAborts(t *testing.T) {
	// A permanently dark home path: every attempt is lost. The operation
	// must abort after the retry budget, release its MSHR, and still fire
	// OnComplete so the caller never hangs.
	eng, _, st, fnet, coh := faultySetup(100, 2)
	fnet.StickPath(0, 1)
	completions := 0
	coh.Issue(&coherence.Op{
		Requester: 0, Home: 1,
		OnComplete: func(sim.Time) { completions++ },
	})
	eng.Run()
	if completions != 1 {
		t.Fatalf("OnComplete fired %d times, want 1 (abort)", completions)
	}
	if coh.Aborted != 1 || st.Aborts != 1 {
		t.Fatalf("aborted = %d/%d, want 1", coh.Aborted, st.Aborts)
	}
	if coh.Retries != 2 || st.Retries != 2 {
		t.Fatalf("retries = %d/%d, want the full budget of 2", coh.Retries, st.Retries)
	}
	if coh.Completed != 0 {
		t.Fatalf("completed = %d, want 0", coh.Completed)
	}
	if got := coh.OutstandingAt(0); got != 0 {
		t.Fatalf("MSHR leak: outstanding = %d after abort", got)
	}
}

func TestRetryDuplicateResponsesAreIdempotent(t *testing.T) {
	// A slow (detuned) but lossless path makes the first attempt time out
	// while its messages are still in flight: two full response sets
	// eventually arrive. The operation must complete exactly once.
	eng, _, _, fnet, coh := faultySetup(50, 8) // 10 ns timeout: any inter-site op exceeds it
	fnet.Detune(0, 16, 0)
	completions := 0
	coh.Issue(&coherence.Op{
		Requester: 0, Home: 1,
		Sharers: []geometry.SiteID{2, 3}, Write: true,
		OnComplete: func(sim.Time) { completions++ },
	})
	eng.Run()
	if completions != 1 {
		t.Fatalf("OnComplete fired %d times, want exactly 1", completions)
	}
	if coh.Completed != 1 {
		t.Fatalf("completed = %d", coh.Completed)
	}
	if coh.Retries == 0 {
		t.Fatal("expected at least one timeout-driven retry on the slow path")
	}
}

func TestTimeoutDisabledByDefault(t *testing.T) {
	// The default params leave CoherenceTimeoutCycles at zero: no timeout
	// events are scheduled, preserving the perfect-network baseline.
	eng, _, coh := setup()
	coh.Issue(&coherence.Op{Requester: 0, Home: 1})
	eng.Run()
	if coh.Retries != 0 || coh.Aborted != 0 {
		t.Fatalf("baseline run produced retries=%d aborts=%d", coh.Retries, coh.Aborted)
	}
}

func TestIntraSiteOperation(t *testing.T) {
	// Requester == home: both messages use the loop-back link.
	eng, p, coh := setup()
	var lat sim.Time
	coh.Issue(&coherence.Op{
		Requester: 5, Home: 5,
		OnComplete: func(l sim.Time) { lat = l },
	})
	eng.Run()
	want := 2*p.Cycles(1) + p.Cycles(p.DirectoryLookupCycles)
	if lat != want {
		t.Fatalf("intra-site op latency = %v, want %v", lat, want)
	}
}

func TestCoherenceSteadyStateAllocs(t *testing.T) {
	// The delivery chain is closure-free (pointer-shaped DeliverHandlers over
	// the tracker), so a steady-state unshared miss costs only the caller's
	// Op, the tracker, and the two packets — and an invalidating write adds
	// one ackChain + two packets per sharer plus the ack bitmap. These
	// bounds pin the "no closures in the hot path" property: reintroducing a
	// per-message closure bumps them immediately.
	eng, p, coh := setup()
	g := p.Grid
	stepUnshared := func() {
		coh.Issue(&coherence.Op{Requester: 0, Home: 1})
		eng.Run()
	}
	stepUnshared() // prime queue capacity and path tables
	if allocs := testing.AllocsPerRun(200, stepUnshared); allocs > 4 {
		t.Fatalf("unshared coherence op allocated %.1f, want ≤ 4 (Op + tracker + 2 packets)", allocs)
	}

	sharers := []geometry.SiteID{g.Site(0, 2), g.Site(3, 3)}
	stepWrite := func() {
		coh.Issue(&coherence.Op{Requester: 0, Home: 1, Sharers: sharers, Write: true})
		eng.Run()
	}
	stepWrite()
	// Op + tracker + acks bitmap + 2+2k packets + k ackChains = 11 for k=2.
	if allocs := testing.AllocsPerRun(200, stepWrite); allocs > 11 {
		t.Fatalf("2-sharer invalidating write allocated %.1f, want ≤ 11", allocs)
	}
	if coh.Completed == 0 {
		t.Fatal("no operations completed")
	}
}
