package cluster

import (
	"fmt"
	"testing"
)

// benchFleetConfig is the BENCH_kernel.json workload: the default 32-cell
// (64-host) evacuation with a shorter warmup so one run is a few hundred
// million cell-ticks rather than billions.
func benchFleetConfig(shards int) FleetConfig {
	cfg := DefaultFleetConfig()
	cfg.Shards = shards
	cfg.WarmupSeconds = 10
	return cfg
}

// BenchmarkShardedClusterTicksPerSecond runs the full 64-host evacuation
// at 1/2/4/8 shards. The simulated work is fixed (and byte-identical — see
// TestFleetShardEquivalence), so ticks/s across the sub-benchmarks is the
// parallel kernel's wall-clock speedup. cell-ticks/s is the aggregate
// simulation throughput (ticks × cells).
func BenchmarkShardedClusterTicksPerSecond(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var ticks, cellTicks int64
			for i := 0; i < b.N; i++ {
				f := NewFleet(benchFleetConfig(shards))
				if res := f.RunEvacuation(600); !res.Success() {
					b.Fatalf("evacuation incomplete: %d/%d", res.Evacuated, f.Cfg.Cells)
				}
				ticks += int64(f.Group.Now())
				cellTicks += int64(f.Group.Now()) * int64(f.Cfg.Cells)
			}
			secs := b.Elapsed().Seconds()
			b.ReportMetric(float64(ticks)/secs, "ticks/s")
			b.ReportMetric(float64(cellTicks)/secs, "cell-ticks/s")
			b.ReportMetric(secs/float64(b.N), "s/run")
		})
	}
}
