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

// arrayView returns g's hybrid view at a hub threshold above every
// degree: no vertex has a dense row, so the Counter runs every set
// operation on the CSR arrays (the forced-array view).
func arrayView(g *graph.Graph) *graph.HybridAdj {
	return graph.NewHybridAdj(g, g.NumVertices())
}

// storageView is a named hybrid view of one graph.
type storageView struct {
	name string
	adj  *graph.HybridAdj
}

// storageViews returns g's forced-array and adaptive views: the pair the
// oracle tests and the BenchmarkSoftMine storage cells compare.
func storageViews(g *graph.Graph) []storageView {
	return []storageView{{"array", arrayView(g)}, {"adaptive", g.Hybrid()}}
}

// TestStoragePoliciesMatchOracleOnDatasets is the hybrid-storage
// acceptance oracle: per-root subtree counts must be bit-identical to
// the reference Engine under the forced-array view and the adaptive one
// (NewCounter's), across the dataset × pattern grid. Adaptive views
// with lowered hub thresholds also run, so candidate sets go
// word-parallel on every dataset, the sparse Lj and Or analogues
// included: midHubThreshold mixes dense and array rows at every level,
// and threshold 1 (on graphs small enough to afford a row per vertex)
// makes every vertex dense. Each dataset runs as a parallel subtest.
func TestStoragePoliciesMatchOracleOnDatasets(t *testing.T) {
	dsets := datasets.All()
	if testing.Short() {
		dsets = datasets.Small()
	}
	for _, d := range dsets {
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			g := d.Graph()
			roots := sampleRoots(g, 12, 4)
			type view struct {
				name    string
				counter func(*plan.Plan) *Counter
			}
			viewAt := func(name string, adj *graph.HybridAdj) view {
				return view{name, func(pl *plan.Plan) *Counter { return newCounter(g, pl, adj) }}
			}
			views := []view{
				viewAt("array", arrayView(g)),
				{"adaptive", func(pl *plan.Plan) *Counter { return NewCounter(g, pl) }},
			}
			ths := []int{midHubThreshold(g, 500)}
			if g.NumVertices() <= 1<<14 {
				ths = append(ths, 1) // n rows of n bits: at most 32 MB
			}
			for _, th := range ths {
				views = append(views, viewAt(fmt.Sprintf("adaptive, hub threshold %d", th), graph.NewHybridAdj(g, th)))
			}
			for _, name := range pattern.Names() {
				pl, err := plan.Compile(mustPattern(t, name), plan.Options{})
				if err != nil {
					t.Fatal(err)
				}
				e := NewEngine(g, pl)
				want := make([]uint64, len(roots))
				for i, v := range roots {
					want[i] = e.CountFromRoot(v)
				}
				for _, vw := range views {
					c := vw.counter(pl)
					for i, v := range roots {
						if got := c.Root(v); got != want[i] {
							t.Fatalf("%s/%s %s root %d: got %d, oracle %d",
								d.Name, name, vw.name, v, got, want[i])
						}
					}
				}
			}
		})
	}
}

// TestStoragePoliciesFullCounts compares whole-graph counts on the
// cache-resident datasets under the forced-array and adaptive views,
// covering the root loop.
func TestStoragePoliciesFullCounts(t *testing.T) {
	for _, d := range datasets.Small() {
		g := d.Graph()
		for _, name := range []string{"tc", "tt", "cyc", "dia"} {
			pl := plan.MustCompile(mustPattern(t, name), plan.Options{})
			want := CountOracle(g, pl)
			for _, vw := range storageViews(g) {
				if got := countAll(newCounter(g, pl, vw.adj), g); got != want {
					t.Errorf("%s/%s %s view: got %d, oracle %d", d.Name, name, vw.name, got, want)
				}
			}
		}
	}
}

// forcedGraphs are small enough to brute-force every named pattern:
// a clique, a star, a clustered power-law graph and a random one.
func forcedGraphs() []*graph.Graph {
	return []*graph.Graph{
		gen.Complete(8),
		gen.Star(12),
		gen.PowerLawCluster(60, 5, 0.6, 7),
		gen.ErdosRenyi(40, 220, 3),
	}
}

// checkForcedView counts every named pattern under both induced
// semantics on each forced graph, with the view adjFor builds, against
// CountOracle, and hands each run's kernel statistics to check, which
// reports what the view's dispatch got wrong ("" when nothing).
func checkForcedView(t *testing.T, adjFor func(*graph.Graph) *graph.HybridAdj, check func(KernelStats) string) {
	t.Helper()
	for gi, g := range forcedGraphs() {
		adj := adjFor(g)
		for _, name := range pattern.Names() {
			for _, edgeInduced := range []bool{false, true} {
				pl, err := plan.Compile(mustPattern(t, name), plan.Options{EdgeInduced: edgeInduced})
				if err != nil {
					t.Fatal(err)
				}
				c := newCounter(g, pl, adj)
				if got, want := countAll(c, g), CountOracle(g, pl); got != want {
					t.Errorf("graph %d %s edgeInduced=%v: counter %d, oracle %d",
						gi, name, edgeInduced, got, want)
				}
				if msg := check(c.Stats()); msg != "" {
					t.Errorf("graph %d %s edgeInduced=%v: %s: %+v", gi, name, edgeInduced, msg, c.Stats())
				}
			}
		}
	}
}

// TestForcedArrayKernels runs the forced grid on the forced-array view:
// no vertex has a dense row, so no dense-row kernel may dispatch.
func TestForcedArrayKernels(t *testing.T) {
	checkForcedView(t, arrayView, func(st KernelStats) string {
		if st.Bits+st.CountBits+st.Word+st.CountWord > 0 {
			return "dense-row kernels dispatched without dense rows"
		}
		return ""
	})
}

func mustPattern(t *testing.T, name string) pattern.Pattern {
	t.Helper()
	p, err := pattern.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
