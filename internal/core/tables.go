package core

import (
	"macrochip/internal/geometry"
	"macrochip/internal/photonics"
	"macrochip/internal/sim"
)

// PathTable memoizes the per-site-pair quantities the networks otherwise
// recompute on every packet: the L-route propagation delay (geometry walk ×
// float multiply × rounding) and the unswitched photonic link budget of the
// pair's route. Both live in flat [src][dst] row-major tables built once at
// network construction, so the per-packet lookup is a single indexed load.
//
// The memoized values are bit-identical to Params.PropDelay /
// PathLossDB-by-formula: the table is filled by calling the same code, not
// by a re-derivation (pinned by TestPathTableMatchesFormulas).
type PathTable struct {
	n     int
	delay []sim.Time
	loss  []photonics.DB
}

// NewPathTable builds the table for every ordered site pair of p's grid.
func NewPathTable(p Params) *PathTable {
	sites := p.Grid.Sites()
	t := &PathTable{
		n:     sites,
		delay: make([]sim.Time, sites*sites),
		loss:  make([]photonics.DB, sites*sites),
	}
	for a := 0; a < sites; a++ {
		for b := 0; b < sites; b++ {
			sa, sb := geometry.SiteID(a), geometry.SiteID(b)
			t.delay[a*sites+b] = p.PropDelay(sa, sb)
			t.loss[a*sites+b] = p.PathLossDB(sa, sb)
		}
	}
	return t
}

// Delay returns the memoized optical propagation delay from a to b along
// the L-shaped row/column route — identical to Params.PropDelay(a, b).
func (t *PathTable) Delay(a, b geometry.SiteID) sim.Time {
	return t.delay[int(a)*t.n+int(b)]
}

// LossDB returns the memoized unswitched link-budget loss from a to b —
// identical to Params.PathLossDB(a, b).
func (t *PathTable) LossDB(a, b geometry.SiteID) photonics.DB {
	return t.loss[int(a)*t.n+int(b)]
}

// Sites returns the table's site count.
func (t *PathTable) Sites() int { return t.n }

// PathLossDB returns the distance-dependent unswitched link budget for one
// ordered site pair: the fixed electro-optic terms of the canonical §2 link
// (modulator + WDM mux + both OPxC bounces + the selected drop filter) plus
// the pair's actual global-waveguide run at the routing-layer loss rate.
// Network-specific extras (pass-by rings, switch hops — table 5's per-design
// factors) are layered on top by the photonics package; this is the part
// that varies per site pair and is therefore worth memoizing.
func (p Params) PathLossDB(a, b geometry.SiteID) photonics.DB {
	c := p.Comp
	fixed := c.ModulatorLossDB + c.MuxLossDB + 2*c.OPxCLossDB + c.DropSelectLossDB
	return fixed + photonics.DB(p.Grid.ManhattanCM(a, b))*c.GlobalWaveguideLossDBPerCM
}
