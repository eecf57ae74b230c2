package mine

import (
	"fmt"
	"testing"

	"fingers/internal/graph"
	"fingers/internal/graph/gen"
	"fingers/internal/pattern"
	"fingers/internal/plan"
)

// TestDenseLeafMatchesOracle is the differential test of the leaf counts
// below a node whose candidate set is a bitset: on dense Erdős–Rényi
// graphs, where level k−3's candidate sets stay bitsets at hub
// threshold 1, the Counter must count what CountOracle counts for every
// named pattern, vertex- and edge-induced (and, up to 4 vertices,
// without symmetry breaking), each plan also mirrored (see mirror), at
// hub threshold 1 and in the adaptive view, and leave no set marked.
// (The adaptive view of graphs this small has no dense rows, since the
// default hub threshold is at least 128, so it runs the array kernels.)
// The grid holds subtract leaves (4star, dia), leaf windows bounded by
// u_{k−2} from below (4cl) and from above (mirrored 4cl), which the test
// checks from the plans, a subtract leaf whose unrestricted window holds
// u_{k−2} itself (4star without symmetry breaking), and used vertices
// inside the leaf window of a bitset node's children: the edge-induced
// 5-vertex pattern below, whose leaf intersects N(u_{k−2}) with a set
// that can hold a used vertex the plan does not know to be adjacent.
func TestDenseLeafMatchesOracle(t *testing.T) {
	patterns := map[string]pattern.Pattern{
		// u0 and u1 each adjacent to u2, u3 and u4, plus the edge u2–u3.
		"K2,3+e": pattern.New(5, [][2]int{{0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {2, 3}}),
	}
	for _, name := range pattern.Names() {
		patterns[name] = mustPattern(t, name)
	}
	var subtract, below, above bool
	for _, gc := range []struct {
		n       uint32
		density float64
	}{
		{100, 0.30}, {80, 0.50},
	} {
		m := int(gc.density * float64(gc.n) * float64(gc.n-1) / 2)
		g := gen.ErdosRenyi(gc.n, m, int64(gc.n)+3)
		views := []storageView{{"threshold 1", graph.NewHybridAdj(g, 1)}, {"adaptive", g.Hybrid()}}
		for name, pat := range patterns {
			opts := []plan.Options{{}, {EdgeInduced: true}}
			if pat.Size() <= 4 {
				opts = append(opts, plan.Options{NoSymmetryBreaking: true})
			}
			for _, opt := range opts {
				pl, err := plan.Compile(pat, opt)
				if err != nil {
					t.Fatal(err)
				}
				want := CountOracle(g, pl)
				for _, p := range []*plan.Plan{pl, mirror(pl)} {
					for _, vw := range views {
						c := newCounter(g, p, vw.adj)
						label := fmt.Sprintf("G(%d, %.0f%%) %s view %s %+v mirrored=%v",
							gc.n, 100*gc.density, vw.name, name, opt, p != pl)
						if got := countAll(c, g); got != want {
							t.Errorf("%s: counter %d, oracle %d", label, got, want)
						}
						assertUnmarked(t, c)
						if !c.countedLeaf {
							continue
						}
						subtract = subtract || c.sched[c.k-2][0].op == plan.OpSubtract
						for _, r := range p.Levels[c.k-1].Restrictions {
							if r.Earlier == c.k-2 {
								below = below || r.Greater
								above = above || !r.Greater
							}
						}
					}
				}
			}
		}
	}
	if !subtract || !below || !above {
		t.Errorf("grid lacks a counted leaf: subtract %v, bounded below by u_{k−2} %v, above %v", subtract, below, above)
	}
}
