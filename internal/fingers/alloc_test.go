package fingers

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

// TestFingersSteadyStateAllocs asserts that once warmed, stepping a PE
// through further roots allocates nothing: exhausted frames hand their
// nodes back to the engine pool, and the task-group, IU and engine
// scratch keep their capacity.
func TestFingersSteadyStateAllocs(t *testing.T) {
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
		roots := accel.NewRootSchedulerWithOrder(order)
		pe := DefaultConfig().NewPE(accel.NewPEState(0, g, plansFor(t, name), roots, fixedPort{})).(*PE)
		// A pass steps until the PE has drawn n more roots; the tree of
		// the last one is finished by the next pass.
		pass := func() {
			for left := roots.Remaining() - n; roots.Remaining() > left; {
				pe.Step()
			}
		}
		pass()
		pass()
		tasks := pe.Tasks
		allocs := testing.AllocsPerRun(1, pass)
		if pe.Tasks == tasks {
			t.Fatalf("%s: no tasks in a pass", name)
		}
		if allocs != 0 {
			t.Errorf("%s: a warmed pass over %d roots allocates %.0f objects, want 0", name, n, allocs)
		}
	}
}
