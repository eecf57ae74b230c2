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

// benchGraphs are the soft-mine workloads: the two densest dataset
// analogues (Lj, Or) with the patterns whose cost is dominated by set
// operations (tc), by deep candidate reuse (4cl) and by subtraction (tt,
// the vertex-induced tailed triangle), plus a genuinely
// dense synthetic ("dense": 1024 vertices at ~38% edge density, tc
// only — every row lands in a stored tier, the hybrid storage layer's
// home turf).
func benchGraphs(b *testing.B) []struct {
	name     string
	g        *graph.Graph
	patterns []string
} {
	b.Helper()
	var out []struct {
		name     string
		g        *graph.Graph
		patterns []string
	}
	for _, gn := range []string{"Lj", "Or"} {
		d, err := datasets.ByName(gn)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, struct {
			name     string
			g        *graph.Graph
			patterns []string
		}{gn, d.Graph(), []string{"tc", "4cl", "tt"}})
	}
	out = append(out, struct {
		name     string
		g        *graph.Graph
		patterns []string
	}{"dense", gen.ErdosRenyi(1024, 200000, 7), []string{"tc"}})
	return out
}

// BenchmarkSoftMine is the hot-path suite EXPERIMENTS.md records.
func BenchmarkSoftMine(b *testing.B) {
	for _, w := range benchGraphs(b) {
		gn, g := w.name, w.g
		for _, pn := range w.patterns {
			p, err := pattern.ByName(pn)
			if err != nil {
				b.Fatal(err)
			}
			pl := plan.MustCompile(p, plan.Options{})
			b.Run(fmt.Sprintf("%s/%s/serial", gn, pn), func(b *testing.B) {
				b.ReportAllocs()
				var n uint64
				for i := 0; i < b.N; i++ {
					n = Count(g, pl)
				}
				b.ReportMetric(float64(n), "embeddings")
			})
			b.Run(fmt.Sprintf("%s/%s/parallel", gn, pn), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					CountParallel(g, pl, 0)
				}
			})
			// Storage-policy cells: forced-array is the no-hybrid
			// reference, adaptive is the serving default — the pair is
			// the tentpole's speedup evidence on the dense graphs. The
			// counter is built and warmed outside the timer so the loop
			// measures steady-state mining, not lazy materialization.
			for _, pol := range []graph.StoragePolicy{graph.StorageArray, graph.StorageAdaptive} {
				b.Run(fmt.Sprintf("%s/%s/storage=%v", gn, pn, pol), func(b *testing.B) {
					c := NewCounterPolicy(g, pl, pol)
					for v := 0; v < g.NumVertices(); v++ {
						c.Root(uint32(v))
					}
					b.ReportAllocs()
					b.ResetTimer()
					var n uint64
					for i := 0; i < b.N; i++ {
						n = 0
						for v := 0; v < g.NumVertices(); v++ {
							n += c.Root(uint32(v))
						}
					}
					b.ReportMetric(float64(n), "embeddings")
				})
			}
		}
	}
}
