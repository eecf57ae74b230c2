package flexminer

import (
	"testing"

	"fingers/internal/accel"
	"fingers/internal/graph/gen"
	"fingers/internal/mem"
)

// fixedPort is a MemPort with a constant latency and no state, so the
// allocation test sees only the PE's and its engines' allocations.
type fixedPort struct{}

func (fixedPort) Access(now mem.Cycles, addr, bytes int64) mem.Cycles { return now + 10 }
func (fixedPort) Probe(addr, bytes int64) bool                        { return true }

// stepRoots steps pe through the next n root trees.
func stepRoots(pe *PE, n int) {
	for i := 0; i < n; i++ {
		pe.Step() // takes the next root
		for len(pe.stack) > 0 {
			pe.Step()
		}
	}
}

// TestFlexSteadyStateAllocs asserts that once warmed, stepping a PE
// through further roots allocates nothing: interior nodes go back to the
// engine pool through their release markers, and every scratch buffer
// keeps its capacity.
func TestFlexSteadyStateAllocs(t *testing.T) {
	g := gen.PowerLawCluster(150, 5, 0.5, 13)
	n := g.NumVertices()
	for _, name := range []string{"tc", "tt", "4cl", "cyc"} {
		// Four passes over the roots: two warm the pools and buffers,
		// AllocsPerRun spends one warming up and measures the last.
		order := make([]uint32, 0, 4*n)
		for p := 0; p < 4; p++ {
			for v := 0; v < n; v++ {
				order = append(order, uint32(v))
			}
		}
		pe := DefaultConfig().NewPE(0, g, compiled(t, name), accel.NewRootSchedulerWithOrder(order), fixedPort{})
		stepRoots(pe, 2*n)
		tasks := pe.Tasks()
		allocs := testing.AllocsPerRun(1, func() { stepRoots(pe, n) })
		if pe.Tasks() == tasks {
			t.Fatalf("%s: no tasks in a pass", name)
		}
		if allocs != 0 {
			t.Errorf("%s: a warmed pass over %d roots allocates %.0f objects, want 0", name, n, allocs)
		}
	}
}
