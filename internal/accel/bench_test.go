package accel

import (
	"context"
	"fmt"
	"testing"

	"fingers/internal/mem"
)

// BenchmarkRun is the accel stage benchmark: the event loop alone, over
// fake PEs whose steps cost fixed cycles, so the time measured is the
// heap and the loop's own bookkeeping. It reports host time per PE step.
func BenchmarkRun(b *testing.B) {
	const stepsPerPE = 1000
	for _, n := range []int{8, 48} {
		b.Run(fmt.Sprintf("pes=%d", n), func(b *testing.B) {
			fakes := make([]fakePE, n)
			pes := make([]PE, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range fakes {
					fakes[j] = fakePE{step: mem.Cycles(5 + j%7), left: stepsPerPE}
					pes[j] = &fakes[j]
				}
				if _, err := Run(context.Background(), pes, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*stepsPerPE), "ns/step")
		})
	}
}
