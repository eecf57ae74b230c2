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

var storagePolicies = []graph.StoragePolicy{
	graph.StorageAdaptive, graph.StorageArray, graph.StorageBitmap,
}

// TestStoragePoliciesMatchOracleOnDatasets is the hybrid-storage
// acceptance oracle: per-root subtree counts must be bit-identical to
// the reference Engine under every storage policy — forced-array,
// forced-bitmap, and adaptive — across the dataset × pattern grid.
// Adaptive views with lowered hub thresholds also run, so candidate
// sets go word-parallel on every dataset, the sparse Lj and Or
// analogues included: midHubThreshold mixes dense and array rows at
// every level, and threshold 1 (on graphs small enough to afford a row
// per vertex) makes every vertex dense.
func TestStoragePoliciesMatchOracleOnDatasets(t *testing.T) {
	dsets := datasets.All()
	if testing.Short() {
		dsets = datasets.Small()
	}
	for _, d := range dsets {
		g := d.Graph()
		roots := sampleRoots(g, 12, 4)
		type view struct {
			name string
			adj  *graph.HybridAdj
		}
		var views []view
		for _, pol := range storagePolicies {
			views = append(views, view{pol.String(), graph.NewHybridAdj(g, pol, 0)})
		}
		ths := []int{midHubThreshold(g, 500)}
		if g.NumVertices() <= 1<<14 {
			ths = append(ths, 1) // n rows of n bits: at most 32 MB
		}
		for _, th := range ths {
			views = append(views, view{fmt.Sprintf("adaptive, hub threshold %d", th), graph.NewHybridAdj(g, graph.StorageAdaptive, th)})
		}
		for _, name := range pattern.Names() {
			p, err := pattern.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := plan.Compile(p, plan.Options{})
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(g, pl)
			want := make([]uint64, len(roots))
			for i, v := range roots {
				want[i] = e.CountFromRoot(v)
			}
			for _, vw := range views {
				c := newCounter(g, pl, vw.adj)
				for i, v := range roots {
					if got := c.Root(v); got != want[i] {
						t.Fatalf("%s/%s %s root %d: got %d, oracle %d",
							d.Name, name, vw.name, v, got, want[i])
					}
				}
			}
		}
	}
}

// TestStoragePoliciesFullCounts compares whole-graph counts on the
// cache-resident datasets under every policy, covering the root loop.
func TestStoragePoliciesFullCounts(t *testing.T) {
	for _, d := range datasets.Small() {
		g := d.Graph()
		for _, name := range []string{"tc", "tt", "cyc", "dia"} {
			pl := plan.MustCompile(mustPattern(t, name), plan.Options{})
			want := CountOracle(g, pl)
			for _, pol := range storagePolicies {
				c := newCounter(g, pl, graph.NewHybridAdj(g, pol, 0))
				var got uint64
				for v := 0; v < g.NumVertices(); v++ {
					got += c.Root(uint32(v))
				}
				if got != want {
					t.Errorf("%s/%s policy %v: got %d, oracle %d", d.Name, name, pol, got, want)
				}
			}
		}
	}
}

// TestForcedBitmapKernels forces the compressed-bitmap tier on graphs
// small enough to brute-force: every nonempty neighbor list becomes a
// bitmap, so dispatch must route through the bitmap kernel families and
// still match the oracle for every named pattern and both semantics.
func TestForcedBitmapKernels(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Complete(8),
		gen.Star(12),
		gen.PowerLawCluster(60, 5, 0.6, 7),
		gen.ErdosRenyi(40, 220, 3),
	}
	for gi, g := range graphs {
		adj := graph.NewHybridAdj(g, graph.StorageBitmap, 0)
		for _, name := range pattern.Names() {
			p, err := pattern.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, edgeInduced := range []bool{false, true} {
				pl, err := plan.Compile(p, plan.Options{EdgeInduced: edgeInduced})
				if err != nil {
					t.Fatal(err)
				}
				c := newCounter(g, pl, adj)
				var got uint64
				for v := 0; v < g.NumVertices(); v++ {
					got += c.Root(uint32(v))
				}
				if want := CountOracle(g, pl); got != want {
					t.Errorf("graph %d %s edgeInduced=%v: forced-bitmap %d, oracle %d",
						gi, name, edgeInduced, got, want)
				}
				st := c.Stats()
				bm := st.BmProbe + st.CountBmProbe + st.CountBmWord
				if st.Total() > 0 && bm == 0 {
					t.Errorf("graph %d %s edgeInduced=%v: ops ran but bitmap kernels never dispatched",
						gi, name, edgeInduced)
				}
			}
		}
	}
}

// TestLeafPopcountPathEngages checks the tentpole's headline path: on a
// dense graph the triangle leaf count must run word-parallel on stored
// rows (CountBmWord), not on decoded arrays.
func TestLeafPopcountPathEngages(t *testing.T) {
	g := gen.Complete(64)
	pl := plan.MustCompile(pattern.Triangle(), plan.Options{})
	c := newCounter(g, pl, graph.NewHybridAdj(g, graph.StorageBitmap, 0))
	var got uint64
	for v := 0; v < g.NumVertices(); v++ {
		got += c.Root(uint32(v))
	}
	if want := CountOracle(g, pl); got != want {
		t.Fatalf("forced-bitmap count %d, oracle %d", got, want)
	}
	if st := c.Stats(); st.CountBmWord == 0 {
		t.Fatalf("leaf popcount path never engaged: %+v", st)
	}
}

// TestHybridSteadyStateAllocs extends the zero-allocation claim to the
// bitmap tier: once lazy materialization has touched every row, mining
// allocates nothing under forced-bitmap storage either.
func TestHybridSteadyStateAllocs(t *testing.T) {
	g := gen.PowerLawCluster(2000, 8, 0.5, 11)
	pl := plan.MustCompile(mustPattern(t, "tc"), plan.Options{})
	c := newCounter(g, pl, graph.NewHybridAdj(g, graph.StorageBitmap, 0))
	for v := 0; v < g.NumVertices(); v++ {
		c.Root(uint32(v))
	}
	avg := testing.AllocsPerRun(10, func() {
		for v := 0; v < 200; v++ {
			c.Root(uint32(v))
		}
	})
	if avg != 0 {
		t.Errorf("%v allocs per 200 steady-state roots under forced bitmap, want 0", avg)
	}
}

func mustPattern(t *testing.T, name string) pattern.Pattern {
	t.Helper()
	p, err := pattern.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
