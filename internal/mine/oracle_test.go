package mine

import (
	"fingers/internal/graph"
	"fingers/internal/pattern"
)

// bruteForceLabeled counts the injective mappings f from pattern vertices
// to graph vertices that preserve adjacency — and, for vertex-induced
// mining, non-adjacency too. Every automorphic image counts separately
// (the "labeled" count), so it equals the plan-based count compiled with
// NoSymmetryBreaking, and AutSize times the symmetry-broken count.
//
// It is exponential and exists purely as a test oracle for small graphs.
func bruteForceLabeled(g *graph.Graph, p pattern.Pattern, vertexInduced bool) uint64 {
	k := p.Size()
	n := g.NumVertices()
	mapped := make([]uint32, k)
	used := make(map[uint32]bool, k)
	var count uint64
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			count++
			return
		}
		for v := 0; v < n; v++ {
			vv := uint32(v)
			if used[vv] {
				continue
			}
			ok := true
			for j := 0; j < i; j++ {
				adj := g.HasEdge(mapped[j], vv)
				if p.HasEdge(j, i) && !adj {
					ok = false
					break
				}
				if vertexInduced && !p.HasEdge(j, i) && adj {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			mapped[i] = vv
			used[vv] = true
			rec(i + 1)
			delete(used, vv)
		}
	}
	rec(0)
	return count
}

// bruteForceUnique counts embeddings up to pattern automorphism (each
// subgraph occurrence counted once), matching the symmetry-broken plan
// count.
func bruteForceUnique(g *graph.Graph, p pattern.Pattern, vertexInduced bool) uint64 {
	labeled := bruteForceLabeled(g, p, vertexInduced)
	aut := uint64(len(p.Automorphisms()))
	return labeled / aut
}
