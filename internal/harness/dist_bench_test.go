package harness

import (
	"strconv"
	"testing"

	"macrochip/internal/networks"
)

// benchDistSweep runs the BenchmarkLoadSweep cell grid — all six networks
// across a four-point load grid — through the given Runner, so the serial
// and distributed sub-benchmarks time exactly the same simulation work.
func benchDistSweep(b *testing.B, r Runner) {
	loads := []float64{0.01, 0.02, 0.04, 0.05}
	type cell struct {
		k    networks.Kind
		load float64
	}
	var cells []cell
	for _, k := range networks.Six() {
		for _, load := range loads {
			cells = append(cells, cell{k, load})
		}
	}
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		pts := runIndexed(r, len(cells), func(j int) LoadPoint {
			cfg := benchLoadPointConfig(cells[j].k)
			cfg.Load = cells[j].load
			cfg.Seed = PointSeed(1, cells[j].k, "uniform", cells[j].load)
			return runLoadPointOn(r, cfg)
		})
		for _, pt := range pts {
			events += pt.Events
		}
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
}

// BenchmarkDistributedSweep times the miniature full sweep through the
// coordinator's fleet at 1, 2, and 4 in-process pipe workers, against the
// serial in-process reference. The delta against serial is the whole
// distribution tax: spec marshal, NDJSON framing, the coordinator's
// dispatch bookkeeping, one protocol round trip per cell, and the
// result's decode-and-remarshal — paid per cell, amortized over that
// cell's simulation. Read the numbers knowing the workers here share the
// host's cores with the coordinator (pipe transport, no second machine),
// so on a single-core host every worker count measures pure coordination
// overhead with no parallel win available.
func BenchmarkDistributedSweep(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		benchDistSweep(b, Serial)
	})
	for _, n := range []int{1, 2, 4} {
		b.Run("workers-"+strconv.Itoa(n), func(b *testing.B) {
			c, _ := pipeFleet(b, n, testFleetConfig())
			defer c.Close()
			b.ResetTimer()
			benchDistSweep(b, Runner{Dist: c})
			b.StopTimer()
			if st := c.Stats(); st.Completed == 0 || st.LocalFallback != 0 {
				b.Fatalf("fleet did not serve the sweep: %+v", st)
			}
		})
	}
}
