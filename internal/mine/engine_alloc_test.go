package mine

import (
	"testing"

	"fingers/internal/graph/gen"
	"fingers/internal/pattern"
	"fingers/internal/plan"
)

// releaseWalk mines the subtree under n with pool discipline: children are
// released before their parents, as the PE models' pseudo-DFS does. It is
// a top-level function (not a closure) so AllocsPerRun sees only the
// engine's own allocations.
func releaseWalk(e *Engine, n *Node, penult int) uint64 {
	if n.Level == penult {
		return e.LeafCount(n)
	}
	var total uint64
	for _, c := range e.Candidates(n) {
		child, _ := e.Extend(n, c)
		total += releaseWalk(e, child, penult)
		e.Release(child)
	}
	return total
}

func mineRootPooled(e *Engine, penult int, v uint32) uint64 {
	root, _ := e.Start(v)
	total := releaseWalk(e, root, penult)
	e.Release(root)
	return total
}

// TestEngineSteadyStateAllocs asserts the pooled Extend path allocates
// nothing once node and scratch capacities have warmed up.
func TestEngineSteadyStateAllocs(t *testing.T) {
	g := gen.Complete(12)
	pl := plan.MustCompile(pattern.Clique(4), plan.Options{})
	e := NewEngine(g, pl)
	penult := pl.K() - 2
	var warm uint64
	for v := 0; v < g.NumVertices(); v++ {
		warm += mineRootPooled(e, penult, uint32(v))
	}
	if want := CountOracle(g, pl); warm != want {
		t.Fatalf("pooled walk count = %d, oracle %d", warm, want)
	}
	allocs := testing.AllocsPerRun(10, func() {
		mineRootPooled(e, penult, 1)
	})
	if allocs != 0 {
		t.Errorf("steady-state extend allocates %.1f objects per root, want 0", allocs)
	}
}
