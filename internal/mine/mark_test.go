package mine

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"fingers/internal/graph"
	"fingers/internal/graph/gen"
	"fingers/internal/pattern"
	"fingers/internal/plan"
)

// markGraphs are small enough for the oracle yet varied in shape: skewed
// power-law degrees (galloping and probing both engage), a uniform random
// graph, and the degenerate star and clique.
func markGraphs() []*graph.Graph {
	return []*graph.Graph{
		gen.PowerLawCluster(300, 6, 0.5, 21),
		gen.ErdosRenyi(120, 900, 4),
		gen.Star(20),
		gen.Complete(9),
	}
}

// TestMarkProbeMatchesOracle pins the mark-and-probe counter to the
// reference Engine for every named pattern, both induced semantics, and
// the array and adaptive storage policies. Under forced arrays every
// array×array update either gallops or probes, so wherever updates ran
// the probe kernels must have run too.
func TestMarkProbeMatchesOracle(t *testing.T) {
	for gi, g := range markGraphs() {
		for _, name := range pattern.Names() {
			for _, edgeInduced := range []bool{false, true} {
				pl, err := plan.Compile(mustPattern(t, name), plan.Options{EdgeInduced: edgeInduced})
				if err != nil {
					t.Fatal(err)
				}
				want := CountOracle(g, pl)
				for _, vw := range storageViews(g) {
					c := newCounter(g, pl, vw.adj)
					if got := countAll(c, g); got != want {
						t.Errorf("graph %d %s edgeInduced=%v %s view: got %d, oracle %d",
							gi, name, edgeInduced, vw.name, got, want)
					}
					st := c.Stats()
					if vw.name == "array" && st.Marks > 0 && st.Probe+st.CountProbe == 0 {
						t.Errorf("graph %d %s edgeInduced=%v: sets marked but never probed: %+v",
							gi, name, edgeInduced, st)
					}
					assertUnmarked(t, c)
				}
			}
		}
	}
}

// TestMarkProbeEngagesOnSparseGraph checks that the sparse soft-mine shapes
// take the marked paths: probing at both the update and the leaf, and
// tt's leaf-only subtract derived from its source's marks rather than
// built from its sibling intersection.
func TestMarkProbeEngagesOnSparseGraph(t *testing.T) {
	g := gen.PowerLawCluster(2000, 8, 0.5, 11)
	for _, name := range []string{"4cl", "tt"} {
		c := newCounter(g, plan.MustCompile(mustPattern(t, name), plan.Options{}), arrayView(g))
		for v := 0; v < g.NumVertices(); v++ {
			c.Root(uint32(v))
		}
		st := c.Stats()
		if st.Probe == 0 || st.CountProbe == 0 {
			t.Errorf("%s: probe kernels idle: %+v", name, st)
		}
		if name == "tt" && (st.Derive == 0 || st.Subset != 0) {
			t.Errorf("tt: leaf subtract not derived from marks: %+v", st)
		}
	}
}

// assertUnmarked checks that a counter between roots holds no marks and
// no derived result.
func assertUnmarked(t *testing.T, c *Counter) {
	t.Helper()
	for level, f := range c.frames {
		if f.derived.marks != nil {
			t.Fatalf("level %d still records a derived result", level)
		}
		for m, bits := range f.marks {
			if f.marked[m] != nil {
				t.Fatalf("level %d slot %d still records a marked set", level, m)
			}
			for i, w := range bits {
				if w != 0 {
					t.Fatalf("level %d slot %d word %d = %#x after Root", level, m, i, w)
				}
			}
		}
	}
}

// TestRootRecoversFromStaleMarks simulates a Root that panicked halfway,
// leaving every mark bitset full of marks, every word-parallel result
// buffer full of stale bits and a derived result recorded in every
// frame: the next Root must clear the marks, drop the derived results
// without restoring their bits, never read the stale words, and still
// count exactly. The sparse graph under forced arrays exercises the
// marks; the dense graph with every vertex in the dense tier keeps its
// candidate sets as bitsets.
func TestRootRecoversFromStaleMarks(t *testing.T) {
	for _, w := range []struct {
		name string
		g    *graph.Graph
		adj  func(*graph.Graph) *graph.HybridAdj
	}{
		{"sparse", gen.PowerLawCluster(300, 6, 0.5, 21), func(g *graph.Graph) *graph.HybridAdj {
			return arrayView(g)
		}},
		{"dense", gen.ErdosRenyi(200, 8000, 3), func(g *graph.Graph) *graph.HybridAdj {
			return graph.NewHybridAdj(g, 1)
		}},
	} {
		for _, name := range []string{"tt", "4cl", "cyc"} {
			g := w.g
			c := newCounter(g, plan.MustCompile(mustPattern(t, name), plan.Options{}), w.adj(g))
			want := make([]uint64, g.NumVertices())
			for v := range want {
				want[v] = c.Root(uint32(v))
			}
			if w.name == "sparse" && name == "tt" && c.Stats().Derive == 0 {
				t.Fatalf("%s %s: no step was derived", w.name, name)
			}
			// A derived result whose restore would set N(0)'s bits in
			// the first mark bitset.
			dm := make([]uint64, c.nwords)
			if m := c.frames[0].marks; len(m) > 0 && m[0] != nil {
				dm = m[0]
			}
			stale := false
			for level := range c.frames {
				f := &c.frames[level]
				for m := range f.marks {
					if f.marks[m] == nil {
						continue
					}
					fill(f.marks[m])
					f.marked[m] = g.Neighbors(0)
					stale = true
				}
				for _, buf := range f.words {
					fill(buf)
					stale = stale || buf != nil
				}
				f.derived = derived{marks: dm, src: g.Neighbors(0), cut: g.Neighbors(0)}
			}
			if !stale {
				t.Fatalf("%s %s: no mark or word buffers were allocated", w.name, name)
			}
			c.dirty = true
			for v := range want {
				if got := c.Root(uint32(v)); got != want[v] {
					t.Fatalf("%s %s root %d after stale bits: got %d, want %d", w.name, name, v, got, want[v])
				}
			}
			assertUnmarked(t, c)
		}
	}
}

// TestDerivedMarksNeverTouchDenseRows mines tt, whose leaf-only subtract
// is derived from marks, through the parallel scheduler with two workers
// under three views: every vertex dense, the default and forced arrays.
// Each count must match the oracle, and the dense slab must be
// byte-identical afterwards: a derive step clears bits only in its
// Counter's own marks, never in a shared dense row. Under -race the two
// workers also show that the rows are only read.
func TestDerivedMarksNeverTouchDenseRows(t *testing.T) {
	g := gen.PowerLawCluster(400, 6, 0.5, 23)
	pl := plan.MustCompile(mustPattern(t, "tt"), plan.Options{})
	want := CountOracle(g, pl)
	for _, vw := range []storageView{
		{"dense", graph.NewHybridAdj(g, 1)},
		{"default", g.Hybrid()},
		{"array", arrayView(g)},
	} {
		before := denseSlab(g, vw.adj)
		got, err := countCtx(context.Background(), g, pl, 2, vw.adj)
		if err != nil || got != want {
			t.Errorf("%s view: count %d err %v, want %d <nil>", vw.name, got, err, want)
		}
		if !slices.Equal(denseSlab(g, vw.adj), before) {
			t.Errorf("%s view: dense rows changed while mining", vw.name)
		}
	}
}

// denseSlab returns a copy of every dense row of adj, back to back.
func denseSlab(g *graph.Graph, adj *graph.HybridAdj) []uint64 {
	var out []uint64
	for v := 0; v < g.NumVertices(); v++ {
		out = append(out, adj.DenseRow(uint32(v))...)
	}
	return out
}

// fill sets every bit of a bitset.
func fill(bits []uint64) {
	for i := range bits {
		bits[i] = ^uint64(0)
	}
}

// TestScheduleEagerFirst checks the schedule invariants the counter relies
// on for every named pattern and both semantics: eager steps precede lazy
// ones, only inner levels have lazy steps, init steps have no mark slot,
// and a subtract's sibling intersection comes earlier and shares its
// mark slot, that is, its source. Only vertex-induced tt among the named
// patterns has a derive step, and every derive step meets step.derive's
// conditions.
func TestScheduleEagerFirst(t *testing.T) {
	var deriving []string
	for _, name := range pattern.Names() {
		for _, edgeInduced := range []bool{false, true} {
			pl, err := plan.Compile(mustPattern(t, name), plan.Options{EdgeInduced: edgeInduced})
			if err != nil {
				t.Fatal(err)
			}
			sched := buildSchedule(pl)
			for level, steps := range sched {
				seenLazy := false
				for i, st := range steps {
					if st.lazy && level == pl.K()-2 {
						t.Errorf("%s level %d: lazy step at the leaf level", name, level)
					}
					if seenLazy && !st.lazy {
						t.Errorf("%s level %d: eager step %d after a lazy one", name, level, i)
					}
					seenLazy = seenLazy || st.lazy
					if st.op == plan.OpInit {
						if st.mark != -1 || st.inter != -1 {
							t.Errorf("%s level %d: init step %d has mark %d inter %d", name, level, i, st.mark, st.inter)
						}
						continue
					}
					if st.derive {
						deriving = append(deriving, fmt.Sprintf("%s/%v", name, edgeInduced))
						leaf := sched[pl.K()-2]
						if level != pl.K()-3 || st.inter < 0 || !slices.Equal(st.targets, []int{pl.K() - 1}) ||
							len(leaf) != 1 || len(pl.Levels[pl.K()-1].Restrictions) > 0 {
							t.Errorf("%s level %d: step %d derived against its conditions", name, level, i)
						}
					}
					if st.inter >= 0 {
						sib := steps[st.inter]
						if st.inter >= i || sib.op != plan.OpIntersect || sib.mark != st.mark || st.op != plan.OpSubtract {
							t.Errorf("%s level %d: step %d has bad sibling %d", name, level, i, st.inter)
						}
					}
				}
			}
		}
	}
	if !slices.Equal(deriving, []string{"tt/false"}) {
		t.Errorf("derive steps in %v, want tt/false only", deriving)
	}
}

// TestMarkProbeUpperBounds mirrors every symmetry-breaking restriction
// (u_j > u_i becomes u_j < u_i), so leaf windows are cut from above and
// probing must clip neighbor lists at the top too. Each automorphism class
// still counts once, so the counts must not change.
func TestMarkProbeUpperBounds(t *testing.T) {
	g := gen.PowerLawCluster(300, 6, 0.5, 21)
	for _, name := range []string{"tc", "4cl", "tt", "dia"} {
		pl := plan.MustCompile(mustPattern(t, name), plan.Options{})
		want := CountOracle(g, pl)
		mirrored := mirror(pl)
		if got := CountOracle(g, mirrored); got != want {
			t.Fatalf("%s: mirrored oracle %d, want %d", name, got, want)
		}
		c := newCounter(g, mirrored, arrayView(g))
		var got uint64
		for v := 0; v < g.NumVertices(); v++ {
			got += c.Root(uint32(v))
		}
		if got != want {
			t.Errorf("%s: mirrored counter %d, want %d", name, got, want)
		}
	}
}

// mirror returns pl with every symmetry-breaking restriction flipped
// (u_j > u_i becomes u_j < u_i), so windows are cut from above instead
// of below. Each automorphism class still counts once.
func mirror(pl *plan.Plan) *plan.Plan {
	m := *pl
	m.Levels = make([]plan.Level, len(pl.Levels))
	for i, lvl := range pl.Levels {
		m.Levels[i] = lvl
		m.Levels[i].Restrictions = nil
		for _, r := range lvl.Restrictions {
			r.Greater = !r.Greater
			m.Levels[i].Restrictions = append(m.Levels[i].Restrictions, r)
		}
	}
	return &m
}
