package mine

import (
	"fmt"
	"testing"

	"fingers/internal/datasets"
	"fingers/internal/graph"
	"fingers/internal/graph/gen"
	"fingers/internal/pattern"
	"fingers/internal/plan"
)

// hubThresholds returns the hub thresholds the word-path tests build
// views at: 1 (every vertex with a neighbor gets a dense row, so every
// set operation between stored rows runs word-wise), midHubThreshold,
// and 0, the default.
func hubThresholds(g *graph.Graph) []int {
	return []int{1, midHubThreshold(g, g.NumVertices()), 0}
}

// midHubThreshold returns a hub threshold at which dense and array rows
// mix: the median degree, raised where needed so at most maxRows
// vertices get a dense row (n of them would cost n²/8 bytes).
func midHubThreshold(g *graph.Graph, maxRows int) int {
	order := g.DegreeOrder()
	th := max(1, g.Degree(order[len(order)/2]))
	if maxRows < len(order) {
		th = max(th, g.Degree(order[maxRows])+1)
	}
	return th
}

// countAll mines every root of g with c.
func countAll(c *Counter, g *graph.Graph) uint64 {
	var n uint64
	for v := 0; v < g.NumVertices(); v++ {
		n += c.Root(uint32(v))
	}
	return n
}

// TestWordPathMatchesOracle is the word-parallel path's differential
// test: on Erdős–Rényi graphs from 1% to 60% edge density, with views at
// hub thresholds 1, the median degree and the default, every catalogue
// pattern under both semantics — vertex-induced plans subtract and
// anti-subtract postponed ancestors — must count exactly what
// CountOracle counts. Each plan also runs mirrored (see mirror), so the
// word ranges are cut from above as well as from below.
func TestWordPathMatchesOracle(t *testing.T) {
	for _, gc := range []struct {
		n       uint32
		density float64
	}{
		{200, 0.01}, {160, 0.05}, {100, 0.15}, {64, 0.30}, {40, 0.60},
	} {
		m := int(gc.density * float64(gc.n) * float64(gc.n-1) / 2)
		g := gen.ErdosRenyi(gc.n, m, int64(gc.n))
		for _, th := range hubThresholds(g) {
			adj := graph.NewHybridAdj(g, th)
			for _, name := range pattern.Names() {
				for _, edgeInduced := range []bool{false, true} {
					pl, err := plan.Compile(mustPattern(t, name), plan.Options{EdgeInduced: edgeInduced})
					if err != nil {
						t.Fatal(err)
					}
					want := CountOracle(g, pl)
					for _, p := range []*plan.Plan{pl, mirror(pl)} {
						c := newCounter(g, p, adj)
						label := fmt.Sprintf("G(%d, %.0f%%) threshold %d %s edgeInduced=%v mirrored=%v",
							gc.n, 100*gc.density, th, name, edgeInduced, p != pl)
						if got := countAll(c, g); got != want {
							t.Errorf("%s: counter %d, oracle %d", label, got, want)
						}
						// With every vertex dense, stored rows only ever
						// meet word-wise somewhere in the tree.
						if st := c.Stats(); th == 1 && st.Total() > 0 && st.Word+st.CountWord == 0 {
							t.Errorf("%s: ops ran but none word-parallel: %+v", label, st)
						}
					}
				}
			}
		}
	}
}

// TestWordPathEngagesOnDenseGraph guards against a silent fallback: on
// a scaled-down copy of the mine-dense graph (38% density, every vertex
// in the dense tier at the default hub threshold) most of 4cl's
// operations must run word-parallel, and most word results must stay
// bitsets. The differential tests check the counts.
func TestWordPathEngagesOnDenseGraph(t *testing.T) {
	g := gen.ErdosRenyi(400, 30000, 7)
	c := NewCounter(g, plan.MustCompile(pattern.Clique(4), plan.Options{}))
	countAll(c, g)
	st := c.Stats()
	if 2*(st.Word+st.CountWord) <= st.Total() {
		t.Errorf("4cl: %d of %d operations word-parallel, want most: %+v", st.Word+st.CountWord, st.Total(), st)
	}
	if 2*st.Decode >= st.Word {
		t.Errorf("4cl: %d of %d word results decoded, want few: %+v", st.Decode, st.Word, st)
	}
}

// TestWordPathDecodesSparseHubs guards the format choice: on the Or
// analogue the hubs are sparse over the universe, so the intersections
// of two hubs' rows are far too small to keep as bitsets and must
// decode to arrays — or every later operation would scan the
// universe's words instead of a few elements.
func TestWordPathDecodesSparseHubs(t *testing.T) {
	d, err := datasets.ByName("Or")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph()
	for _, name := range []string{"4cl", "tt"} {
		c := NewCounter(g, plan.MustCompile(mustPattern(t, name), plan.Options{}))
		countAll(c, g)
		st := c.Stats()
		if st.Word == 0 || 10*st.Decode < 9*st.Word {
			t.Errorf("%s: %d of %d word results decoded, want at least 90%%: %+v", name, st.Decode, st.Word, st)
		}
	}
}
