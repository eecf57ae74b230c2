package flexminer

import (
	"fmt"
	"testing"

	"fingers/internal/graph/gen"
)

// BenchmarkFlexMinerChip measures the simulator's throughput for the
// FlexMiner baseline mining tailed triangles on a power-law graph: one
// PE, and the paper's 40-PE FlexMiner chip, each with the list-centric
// cost model and with the SISA-style set-centric one.
func BenchmarkFlexMinerChip(b *testing.B) {
	g := gen.PowerLawCluster(2000, 6, 0.5, 1)
	pls := compiled(b, "tt")
	for _, pes := range []int{1, 40} {
		for _, setCentric := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.SetCentric = setCentric
			b.Run(fmt.Sprintf("pes=%d/setcentric=%v", pes, setCentric), func(b *testing.B) {
				b.ReportAllocs()
				var cycles int64
				for i := 0; i < b.N; i++ {
					cycles = int64(mustRun(b, mustChip(b, cfg, pes, 0, g, pls)).Cycles)
				}
				b.ReportMetric(float64(cycles), "sim-cycles")
			})
		}
	}
}
