package harness

import (
	"bytes"
	"encoding/json"
	"fmt"

	"macrochip/internal/expcache"
)

// ModelSalt versions the semantics of every simulation behind the result
// cache. Bump it whenever a change alters what any cached study point would
// compute — kernel dispatch order, network timing models, coherence
// protocol, statistics definitions — and every previously cached entry
// becomes unreachable. Formatting-only and harness-plumbing changes do not
// need a bump: the golden-CSV tests pin the actual output bytes either way,
// and TestModelSaltTripwire fails when tiny fixed cells change their output
// while the salt stays put.
const ModelSalt = "macrochip-sim-v6"

// Cells: the unit of caching and the unit of distributed work is one
// (config, derived seed) experiment point, described by one spec struct per
// kind — loadpoint, benchcell, resilience, inference. A spec's JSON-visible
// fields are the cell's whole identity, and the one value plays three
// roles: its json.Marshal bytes are the cache-key input (cellKey) and the
// wire payload a worker decodes (RunCell), and run() computes the cell from
// those same fields, so nothing the key misses can reach a local result
// either. A traffic pattern travels by Name() and is rebuilt with
// traffic.ByName; the observability hook does not travel at all
// (instrumented points bypass cells entirely, see runLoadPoints).
//
// Byte-identity across the cache and the wire rests on one property: every
// result struct round-trips through encoding/json with shortest-round-trip
// float encoding, so unmarshal(marshal(x)) == x value-for-value, and the
// coordinator's re-marshal of a worker-computed result is byte-for-byte the
// entry a local run would have written.
type cell[T any] interface {
	kind() string
	run() (T, error)
}

// wireCells maps each cell kind to its worker-side execution.
var wireCells = map[string]func(Runner, []byte) (any, error){
	loadpoint{}.kind():  runWire[loadpoint],
	benchcell{}.kind():  runWire[benchcell],
	resilience{}.kind(): runWire[resilience],
	inference{}.kind():  runWire[inference],
}

// cellKey is the content address of a spec: SHA-256 over ModelSalt, the
// kind, and the spec's canonical JSON, which it also returns for the wire.
// It fails only for a spec json cannot encode (a NaN or infinite float).
func cellKey(kind string, spec any) (expcache.Key, []byte, error) {
	data, err := json.Marshal(spec)
	if err != nil {
		return expcache.Key{}, nil, err
	}
	return expcache.NewKey(ModelSalt).Str("kind", kind).Bytes("spec", data).Sum(), data, nil
}

// runCells evaluates cells on the Runner's pool, slotted by index. Each
// cell's key is computed once and the whole wave is prefetched; a cell is
// then served by the cache, or on a miss offered to the fleet with the
// marshalled spec, or run locally. A spec that cannot be encoded runs
// locally and uncached.
func runCells[T any, C cell[T]](r Runner, cells []C) []T {
	keys := make([]expcache.Key, len(cells))
	specs := make([][]byte, len(cells))
	if r.Cache != nil || r.Dist != nil {
		for i, c := range cells {
			keys[i], specs[i], _ = cellKey(c.kind(), c)
		}
		r.Cache.Prefetch(keys)
	}
	return runIndexed(r, len(cells), func(i int) T {
		c, spec := cells[i], specs[i]
		if r.Cache == nil || spec == nil {
			return distCell(r.Dist, c, spec)
		}
		return expcache.Do(r.Cache, keys[i], func() T { return distCell(r.Dist, c, spec) })
	})
}

// cacheOnly memoizes compute under the key of (kind, spec) without ever
// dispatching it: for results that are cheap closed-form analysis or an
// inherently sequential search over cells (scaling rows, saturation
// searches).
func cacheOnly[T any](r Runner, kind string, spec any, compute func() T) T {
	if r.Cache == nil {
		return compute()
	}
	key, _, err := cellKey(kind, spec)
	if err != nil {
		return compute()
	}
	return expcache.Do(r.Cache, key, compute)
}

// distCell dispatches one cell to the coordinator fleet and runs it locally
// when the fleet cannot serve it — the coordinator is absent, draining, out
// of workers, the cell failed remotely, or the result did not decode; the
// sweep never depends on remote success for completeness. Configs are
// validated before fan-out, so a local run error is a bug and panics.
func distCell[T any, C cell[T]](d *Coordinator, c C, spec []byte) T {
	if d != nil && spec != nil {
		if value, ok := d.Exec(c.kind(), spec); ok {
			var v T
			err := json.Unmarshal(value, &v)
			if err == nil {
				return v
			}
			d.noteBadValue(c.kind(), err)
		}
	}
	v, err := c.run()
	if err != nil {
		panic(fmt.Sprintf("harness: %s cell: %v", c.kind(), err))
	}
	return v
}

// RunCell executes one wire cell — the worker side of the distributed
// protocol — through the same cache path the in-process studies use, on
// the worker's own Runner (serial, locally cached, never redistributed).
// The returned value is the result struct, ready for canonical JSON
// encoding. A spec with a field this build does not know is an error, so a
// coordinator/worker skew can never silently simulate a truncated config;
// a panicking cell is an error too, so a worker survives any single bad
// cell.
func RunCell(r Runner, kind string, spec []byte) (v any, err error) {
	run, ok := wireCells[kind]
	if !ok {
		return nil, fmt.Errorf("harness: unknown cell kind %q", kind)
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("cell panicked: %v", p)
		}
	}()
	r.Workers = 1
	r.Dist = nil
	return run(r, spec)
}

// runWire strict-decodes a spec of kind C and runs it.
func runWire[C cell[T], T any](r Runner, spec []byte) (any, error) {
	c, err := decodeSpec[C](spec)
	if err != nil {
		return nil, err
	}
	return runCells(r, []C{c})[0], nil
}

// decodeSpec strict-decodes a wire spec of kind C: a field this build does
// not know is an error, never a silently truncated config.
func decodeSpec[C interface{ kind() string }](spec []byte) (C, error) {
	var c C
	dec := json.NewDecoder(bytes.NewReader(spec))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return c, fmt.Errorf("harness: decoding %s spec: %w", c.kind(), err)
	}
	return c, nil
}
