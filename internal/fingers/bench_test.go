package fingers

import (
	"math/rand"
	"testing"

	"fingers/internal/accel"
	"fingers/internal/graph/gen"
	"fingers/internal/mine"
	"fingers/internal/pattern"
	"fingers/internal/plan"
	"fingers/internal/setops"
	"fingers/internal/telemetry"
)

// BenchmarkSinglePE measures the simulator's throughput for one FINGERS
// PE mining tailed triangles on a power-law graph.
func BenchmarkSinglePE(b *testing.B) {
	g := gen.PowerLawCluster(2000, 6, 0.5, 1)
	pls := []*plan.Plan{mustPlan(b, "tt")}
	b.ReportAllocs()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, mustChip(b, DefaultConfig(), 1, 0, g, pls))
		cycles = int64(res.Cycles)
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// BenchmarkChip20PE measures the full-chip configuration.
func BenchmarkChip20PE(b *testing.B) {
	g := gen.PowerLawCluster(2000, 6, 0.5, 1)
	pls := []*plan.Plan{mustPlan(b, "tc")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustRun(b, mustChip(b, DefaultConfig(), 20, 0, g, pls))
	}
}

func mustPlan(b *testing.B, name string) *plan.Plan {
	b.Helper()
	p, err := pattern.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return plan.MustCompile(p, plan.Options{})
}

// BenchmarkSinglePENilTracer is BenchmarkSinglePE with the telemetry
// hooks explicitly detached: it must stay within noise of the plain
// benchmark, which is the zero-overhead-when-disabled guarantee.
func BenchmarkSinglePENilTracer(b *testing.B) {
	g := gen.PowerLawCluster(2000, 6, 0.5, 1)
	pls := []*plan.Plan{mustPlan(b, "tt")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		chip := mustChip(b, DefaultConfig(), 1, 0, g, pls)
		chip.SetTracer(nil)
		mustRun(b, chip)
	}
}

// BenchmarkSinglePECountingTracer measures the cost of the cheapest
// real tracer, for comparison against the nil-tracer baseline.
func BenchmarkSinglePECountingTracer(b *testing.B) {
	g := gen.PowerLawCluster(2000, 6, 0.5, 1)
	pls := []*plan.Plan{mustPlan(b, "tt")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		chip := mustChip(b, DefaultConfig(), 1, 0, g, pls)
		chip.SetTracer(&telemetry.Counting{})
		mustRun(b, chip)
	}
}

// BenchmarkComputeTask is the PE op loop's layer benchmark: computeTask
// charging tasks of two set operations each, shaped like most of a
// simulation's operations (a candidate set of up to 24 elements against
// a neighbor list of up to 48, intersections and subtractions alike),
// with no memory traffic. It reports host time per operation.
func BenchmarkComputeTask(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ops := make([]mine.SetOpExec, 256)
	for i := range ops {
		ops[i] = mine.SetOpExec{
			Kind:  []setops.Op{setops.OpIntersect, setops.OpSubtract}[i%2],
			Short: randomSortedSet(rng, 24, 2000),
			Long:  randomSortedSet(rng, 48, 2000),
		}
	}
	pe := DefaultConfig().NewPE(accel.PEState{}).(*PE)
	fetch := []uint32{0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := 2 * (i % 128)
		pe.computeTask(0, mine.TaskInfo{Ops: ops[j : j+2], FetchVertices: fetch})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/op-charged")
}
