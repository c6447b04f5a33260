package traffic

import (
	"testing"
	"testing/quick"

	"macrochip/internal/core"
	"macrochip/internal/geometry"
	"macrochip/internal/sim"
)

func grid() geometry.Grid { return geometry.Default8x8() }

func TestUniformNeverSelf(t *testing.T) {
	u := Uniform{grid()}
	rng := sim.NewRNG(1)
	for i := 0; i < 10000; i++ {
		src := geometry.SiteID(i % 64)
		if d := u.Dest(src, rng); d == src {
			t.Fatal("uniform chose self")
		}
	}
}

func TestUniformCoversAllDestinations(t *testing.T) {
	u := Uniform{grid()}
	rng := sim.NewRNG(2)
	seen := map[geometry.SiteID]int{}
	const n = 63 * 400
	for i := 0; i < n; i++ {
		seen[u.Dest(0, rng)]++
	}
	if len(seen) != 63 {
		t.Fatalf("uniform reached %d destinations, want 63", len(seen))
	}
	for d, c := range seen {
		if c < n/63/2 || c > n/63*2 {
			t.Fatalf("destination %d frequency %d far from uniform", d, c)
		}
	}
}

func TestTransposeMapsRowColumn(t *testing.T) {
	g := grid()
	tr := Transpose{g}
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			src := g.Site(r, c)
			if d := tr.Dest(src, nil); d != g.Site(c, r) {
				t.Fatalf("transpose(%d,%d) = %d, want (%d,%d)", r, c, d, c, r)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	g := grid()
	tr := Transpose{g}
	f := func(s uint8) bool {
		src := geometry.SiteID(s % 64)
		return tr.Dest(tr.Dest(src, nil), nil) == src
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestButterflySwapsEndBits(t *testing.T) {
	g := grid()
	b := Butterfly{g}
	cases := []struct{ src, dst geometry.SiteID }{
		{0, 0},               // 000000 fixed
		{1, 32},              // 000001 → 100000
		{32, 1},              // 100000 → 000001
		{33, 33},             // 100001 fixed
		{0b101010, 0b001011}, // swap ends
		{63, 63},             // 111111 fixed
	}
	for _, c := range cases {
		if got := b.Dest(c.src, nil); got != c.dst {
			t.Errorf("butterfly(%06b) = %06b, want %06b", c.src, got, c.dst)
		}
	}
}

func TestButterflyHalfSelf(t *testing.T) {
	// Sites whose LSB == MSB map to themselves: exactly half of them —
	// the 50% intra-node traffic the paper notes (§6.2).
	b := Butterfly{grid()}
	self := 0
	for s := 0; s < 64; s++ {
		if b.Dest(geometry.SiteID(s), nil) == geometry.SiteID(s) {
			self++
		}
	}
	if self != 32 {
		t.Fatalf("butterfly self-maps %d sites, want 32", self)
	}
}

func TestButterflyInvolution(t *testing.T) {
	b := Butterfly{grid()}
	f := func(s uint8) bool {
		src := geometry.SiteID(s % 64)
		return b.Dest(b.Dest(src, nil), nil) == src
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNeighborAlwaysAdjacent(t *testing.T) {
	g := grid()
	nb := Neighbor{g}
	rng := sim.NewRNG(3)
	for i := 0; i < 10000; i++ {
		src := geometry.SiteID(i % 64)
		d := nb.Dest(src, rng)
		if d == src {
			t.Fatal("neighbor chose self")
		}
		dr := (g.Row(src) - g.Row(d) + 8) % 8
		dc := (g.Col(src) - g.Col(d) + 8) % 8
		rowStep := dr == 1 || dr == 7
		colStep := dc == 1 || dc == 7
		if !(rowStep && dc == 0 || colStep && dr == 0) {
			t.Fatalf("neighbor(%d) = %d is not toroidally adjacent", src, d)
		}
	}
}

func TestNeighborCoversFour(t *testing.T) {
	nb := Neighbor{grid()}
	rng := sim.NewRNG(4)
	seen := map[geometry.SiteID]bool{}
	for i := 0; i < 1000; i++ {
		seen[nb.Dest(27, rng)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("neighbor reached %d destinations from site 27, want 4", len(seen))
	}
}

func TestByName(t *testing.T) {
	g := grid()
	for _, name := range []string{"uniform", "all-to-all", "transpose", "butterfly", "neighbor", "nearest-neighbor"} {
		if _, err := ByName(name, g); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("bogus", g); err == nil {
		t.Error("ByName(bogus) should fail")
	}
}

func TestAllPatterns(t *testing.T) {
	pats := All(grid())
	if len(pats) != 4 {
		t.Fatalf("All returned %d patterns", len(pats))
	}
	names := map[string]bool{}
	for _, p := range pats {
		names[p.Name()] = true
	}
	for _, want := range []string{"uniform", "transpose", "neighbor", "butterfly"} {
		if !names[want] {
			t.Errorf("pattern %q missing", want)
		}
	}
}

func TestPatternsDeterministicWithSeed(t *testing.T) {
	g := grid()
	u := Uniform{g}
	a, b := sim.NewRNG(9), sim.NewRNG(9)
	for i := 0; i < 1000; i++ {
		if u.Dest(5, a) != u.Dest(5, b) {
			t.Fatal("uniform pattern not deterministic per seed")
		}
	}
}

// blackHole is a core.Network that loses every packet, as a dark laser
// would: each is stamped as injected and counted as dropped.
type blackHole struct {
	eng *sim.Engine
	st  *core.Stats
}

func (b *blackHole) Name() string { return "black-hole" }

func (b *blackHole) Inject(p *core.Packet) {
	b.st.StampInjection(p, b.eng.Now())
	b.st.AddDrop()
}

func (b *blackHole) Stats() *core.Stats { return b.st }

func TestRetryAllocsPerAttempt(t *testing.T) {
	// A retried packet's attempt is its packet plus one flight struct,
	// which is both the Deliver handler and the timeout event: no flag or
	// closure escapes per attempt.
	eng := sim.NewEngine()
	st := core.NewStats(0)
	const maxRetries = 3
	o := &OpenLoop{Eng: eng, Net: &blackHole{eng, st}, PacketBytes: 64,
		Retry:    RetryPolicy{Timeout: 100 * sim.Nanosecond, MaxRetries: maxRetries},
		retryRNG: sim.NewRNG(1)}
	step := func() {
		o.send(0, 1, 0)
		eng.Run()
	}
	step() // prime the event queue
	const attempts = maxRetries + 1
	if per := testing.AllocsPerRun(100, step) / attempts; per > 2 {
		t.Fatalf("retried open-loop attempt allocated %.2f, want ≤ 2 (packet + flight)", per)
	}
	if runs := uint64(1 + 1 + 100); st.Injected != runs*attempts || st.Aborts != runs || st.Retries != runs*maxRetries {
		t.Fatalf("injected %d, retries %d, aborts %d; want %d, %d, %d",
			st.Injected, st.Retries, st.Aborts, runs*attempts, runs*maxRetries, runs)
	}
}
