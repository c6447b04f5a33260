// Package directory implements the full-map coherence directory the
// macrochip's home sites maintain in the trace-driven simulation mode: for
// every cached line, which sites hold it and which (if any) owns a dirty
// copy. With 64 sites a full bit-vector sharer map fits in one uint64,
// making the directory exact rather than approximate.
package directory

import (
	"math/bits"

	"macrochip/internal/geometry"
)

// Entry is the directory state of one line.
type Entry struct {
	// Sharers is the site bit-vector of caches holding the line.
	Sharers uint64
	// Owner is the site holding the line dirty (Modified/Owned), or -1.
	Owner geometry.SiteID
}

// Count returns the number of sharing sites.
func (e Entry) Count() int { return bits.OnesCount64(e.Sharers) }

// Holds reports whether site s caches the line.
func (e Entry) Holds(s geometry.SiteID) bool { return e.Sharers&(1<<uint(s)) != 0 }

// SharerList expands the bit-vector, excluding the given site.
func (e Entry) SharerList(exclude geometry.SiteID) []geometry.SiteID {
	out := make([]geometry.SiteID, 0, e.Count())
	v := e.Sharers
	for v != 0 {
		s := geometry.SiteID(bits.TrailingZeros64(v))
		v &= v - 1
		if s != exclude {
			out = append(out, s)
		}
	}
	return out
}

// Directory is the distributed full-map directory. Lines are identified by
// their line-aligned address; homes are derived by address interleaving
// (Home).
type Directory struct {
	sites   int
	entries map[uint64]*Entry

	// Stats
	ReadMisses, WriteMisses uint64
	InvalidationsSent       uint64
	Forwards                uint64
}

// New returns an empty directory for a machine with the given site count.
func New(sites int) *Directory {
	return &Directory{sites: sites, entries: make(map[uint64]*Entry)}
}

// Home returns the line's home site by cache-line interleaving — the
// address-hash spreading that makes application coherence traffic uniform
// across the macrochip regardless of the program's spatial structure.
func (d *Directory) Home(lineAddr uint64, lineBytes int) geometry.SiteID {
	return geometry.SiteID((lineAddr / uint64(lineBytes)) % uint64(d.sites))
}

// Lookup returns the entry for a line (zero entry if untracked).
func (d *Directory) Lookup(lineAddr uint64) Entry {
	if e, ok := d.entries[lineAddr]; ok {
		return *e
	}
	return Entry{Owner: -1}
}

// ReadMiss records a read miss by site s and returns the sites that must
// supply or acknowledge data: the dirty owner if one exists (a
// cache-to-cache forward), otherwise nothing (the home's memory supplies
// data). The requester is added as a sharer; a dirty owner is downgraded to
// Owned (it keeps supplying data for subsequent readers, MOESI-style).
func (d *Directory) ReadMiss(lineAddr uint64, s geometry.SiteID) (forwardFrom geometry.SiteID, forwarded bool) {
	d.ReadMisses++
	e := d.entry(lineAddr)
	if e.Owner >= 0 && e.Owner != s {
		forwardFrom, forwarded = e.Owner, true
		d.Forwards++
		// The owner keeps the dirty line in Owned state; the directory
		// still tracks it as the owner.
	}
	e.Sharers |= 1 << uint(s)
	return forwardFrom, forwarded
}

// WriteMiss records a write (or upgrade) by site s and returns the sites
// that must be invalidated. The requester becomes the exclusive dirty
// owner.
func (d *Directory) WriteMiss(lineAddr uint64, s geometry.SiteID) []geometry.SiteID {
	d.WriteMisses++
	e := d.entry(lineAddr)
	victims := Entry{Sharers: e.Sharers &^ (1 << uint(s))}.SharerList(s)
	d.InvalidationsSent += uint64(len(victims))
	e.Sharers = 1 << uint(s)
	e.Owner = s
	return victims
}

// Evict removes site s from the line's sharer set (an L2 eviction or a
// received invalidation). Dirty evictions clear ownership.
func (d *Directory) Evict(lineAddr uint64, s geometry.SiteID) {
	e, ok := d.entries[lineAddr]
	if !ok {
		return
	}
	e.Sharers &^= 1 << uint(s)
	if e.Owner == s {
		e.Owner = -1
	}
	if e.Sharers == 0 {
		delete(d.entries, lineAddr)
	}
}

// TrackedLines reports the number of lines with directory state.
func (d *Directory) TrackedLines() int { return len(d.entries) }

func (d *Directory) entry(lineAddr uint64) *Entry {
	e, ok := d.entries[lineAddr]
	if !ok {
		e = &Entry{Owner: -1}
		d.entries[lineAddr] = e
	}
	return e
}
