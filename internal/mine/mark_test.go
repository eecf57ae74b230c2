package mine

import (
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
				for _, pol := range []graph.StoragePolicy{graph.StorageArray, graph.StorageAdaptive} {
					c := NewCounterPolicy(g, pl, pol)
					var got uint64
					for v := 0; v < g.NumVertices(); v++ {
						got += c.Root(uint32(v))
					}
					if got != want {
						t.Errorf("graph %d %s edgeInduced=%v policy %v: got %d, oracle %d",
							gi, name, edgeInduced, pol, got, want)
					}
					st := c.Stats()
					if pol == graph.StorageArray && st.Marks > 0 && st.Probe+st.CountProbe == 0 {
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
// take the new paths: probing at both the update and the leaf, and tt's
// subtract reusing its sibling intersection.
func TestMarkProbeEngagesOnSparseGraph(t *testing.T) {
	g := gen.PowerLawCluster(2000, 8, 0.5, 11)
	for _, name := range []string{"4cl", "tt"} {
		c := NewCounterPolicy(g, plan.MustCompile(mustPattern(t, name), plan.Options{}), graph.StorageArray)
		for v := 0; v < g.NumVertices(); v++ {
			c.Root(uint32(v))
		}
		st := c.Stats()
		if st.Probe == 0 || st.CountProbe == 0 {
			t.Errorf("%s: probe kernels idle: %+v", name, st)
		}
		if name == "tt" && st.Subset == 0 {
			t.Errorf("tt: subtract never reused its sibling intersection: %+v", st)
		}
	}
}

// assertUnmarked checks that a counter between roots holds no marks.
func assertUnmarked(t *testing.T, c *Counter) {
	t.Helper()
	for level, f := range c.frames {
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
// leaving every bitset full of marks: the next Root must clear them and
// still count exactly.
func TestRootRecoversFromStaleMarks(t *testing.T) {
	g := gen.PowerLawCluster(300, 6, 0.5, 21)
	pl := plan.MustCompile(mustPattern(t, "tt"), plan.Options{})
	c := NewCounterPolicy(g, pl, graph.StorageArray)
	want := make([]uint64, g.NumVertices())
	for v := range want {
		want[v] = c.Root(uint32(v))
	}
	stale := false
	for level := range c.frames {
		f := &c.frames[level]
		for m := range f.marks {
			if f.marks[m] == nil {
				continue
			}
			for i := range f.marks[m] {
				f.marks[m][i] = ^uint64(0)
			}
			f.marked[m] = g.Neighbors(0)
			stale = true
		}
	}
	if !stale {
		t.Fatal("no mark bitsets were allocated")
	}
	c.dirty = true
	for v := range want {
		if got := c.Root(uint32(v)); got != want[v] {
			t.Fatalf("root %d after stale marks: got %d, want %d", v, got, want[v])
		}
	}
	assertUnmarked(t, c)
}

// TestScheduleEagerFirst checks the schedule invariants the counter relies
// on for every named pattern and both semantics: eager steps precede lazy
// ones, only inner levels have lazy steps, init steps have no mark slot,
// and a subtract's sibling intersection comes earlier and shares its
// mark slot, that is, its source.
func TestScheduleEagerFirst(t *testing.T) {
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
		mirrored := *pl
		mirrored.Levels = make([]plan.Level, len(pl.Levels))
		for i, lvl := range pl.Levels {
			mirrored.Levels[i] = lvl
			mirrored.Levels[i].Restrictions = nil
			for _, r := range lvl.Restrictions {
				r.Greater = !r.Greater
				mirrored.Levels[i].Restrictions = append(mirrored.Levels[i].Restrictions, r)
			}
		}
		if got := CountOracle(g, &mirrored); got != want {
			t.Fatalf("%s: mirrored oracle %d, want %d", name, got, want)
		}
		c := NewCounterPolicy(g, &mirrored, graph.StorageArray)
		var got uint64
		for v := 0; v < g.NumVertices(); v++ {
			got += c.Root(uint32(v))
		}
		if got != want {
			t.Errorf("%s: mirrored counter %d, want %d", name, got, want)
		}
	}
}
