package graph

import (
	"sync"
	"testing"
)

// hybridTestGraph builds a graph with all three tiers populated: a
// 40-clique (dense over its span → bitmap tier), one hub wired to
// everything (dense tier under a low threshold), and a sparse path
// (array tier).
func hybridTestGraph() *Graph {
	b := NewBuilder(0)
	for i := uint32(0); i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			b.AddEdge(i, j)
		}
	}
	hub := uint32(200)
	for i := uint32(0); i < 120; i++ {
		b.AddEdge(hub, i)
	}
	for i := uint32(300); i < 330; i++ {
		b.AddEdge(i, i+60)
	}
	return b.Build()
}

func TestHybridAdjTiers(t *testing.T) {
	g := hybridTestGraph()
	h := NewHybridAdj(g, 100) // hub=200 (deg 120) qualifies
	if h.DenseRow(200) == nil || !h.HasStoredRow(200) {
		t.Fatal("vertex 200 should be in the dense tier")
	}
	// Clique member: 39 neighbors in a span of 40+ (plus the hub edge).
	if h.DenseRow(1) != nil || !h.HasStoredRow(1) {
		t.Fatal("clique vertex 1 should be in the bitmap tier")
	}
	if got := h.RowBytes(1); got != 12*int64(containers(g.Neighbors(1))) {
		t.Fatalf("bitmap-tier RowBytes = %d, want %d", got, 12*containers(g.Neighbors(1)))
	}
	// Path vertex: one neighbor far away.
	if h.HasStoredRow(305) || h.DenseRow(305) != nil {
		t.Fatal("sparse vertex 305 should stay on the array tier")
	}
	if got, want := h.RowBytes(305), g.NeighborBytes(305); got != want {
		t.Fatalf("array-tier RowBytes = %d, want %d", got, want)
	}
}

// TestHybridAdjForcedPolicies checks the two forced hub thresholds the
// miner's differential tests build on: one above every degree keeps
// every list off the dense tier, and 1 puts every nonempty list on it.
// Neither changes which remaining lists the bitmap tier costs.
func TestHybridAdjForcedPolicies(t *testing.T) {
	g := hybridTestGraph()
	def := NewHybridAdj(g, 0)
	none := NewHybridAdj(g, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		if none.DenseRow(uint32(v)) != nil {
			t.Fatalf("threshold above every degree built a dense row for %d", v)
		}
		if none.HasStoredRow(uint32(v)) != def.HasStoredRow(uint32(v)) {
			t.Fatalf("vertex %d: bitmap tier depends on the hub threshold", v)
		}
	}
	if fp := none.Footprint(); fp.DenseRows != 0 || fp != def.Footprint() {
		t.Fatalf("no-hub footprint = %+v, default %+v", fp, def.Footprint())
	}
	all := NewHybridAdj(g, 1)
	for v := 0; v < g.NumVertices(); v++ {
		nonempty := g.Degree(uint32(v)) > 0
		if (all.DenseRow(uint32(v)) != nil) != nonempty || all.HasStoredRow(uint32(v)) != nonempty {
			t.Fatalf("threshold 1: vertex %d (degree %d) tier wrong", v, g.Degree(uint32(v)))
		}
	}
	if fp := all.Footprint(); fp.BitmapRows != 0 || fp.BitmapBytes != 0 {
		t.Fatalf("threshold 1 left bitmap-tier rows: %+v", fp)
	}
}

// TestHybridFootprintExact checks the footprint against an independent
// count: a bitmap-tier vertex costs 12 bytes per distinct 64-value word
// its neighbors touch, and the tier totals are the sums over vertices.
func TestHybridFootprintExact(t *testing.T) {
	g := hybridTestGraph()
	h := NewHybridAdj(g, 100)
	fp := h.Footprint()
	var bitmapRows, denseRows int
	var bitmapBytes, denseBytes int64
	for v := 0; v < g.NumVertices(); v++ {
		if row := h.DenseRow(uint32(v)); row != nil {
			denseRows++
			denseBytes += int64(8 * len(row))
			continue
		}
		if !h.HasStoredRow(uint32(v)) {
			continue
		}
		want := 12 * int64(containers(g.Neighbors(uint32(v))))
		if got := h.RowBytes(uint32(v)); got != want {
			t.Fatalf("vertex %d: RowBytes = %d, want %d", v, got, want)
		}
		bitmapRows++
		bitmapBytes += want
	}
	if bitmapRows == 0 || fp.BitmapRows != bitmapRows || fp.BitmapBytes != bitmapBytes {
		t.Fatalf("bitmap tier accounting %+v, want %d rows/%d bytes", fp, bitmapRows, bitmapBytes)
	}
	if denseRows == 0 || fp.DenseRows != denseRows || fp.DenseBytes != denseBytes {
		t.Fatalf("dense tier accounting %+v, want %d rows/%d bytes", fp, denseRows, denseBytes)
	}
	if fp.HybridBytes() != fp.DenseBytes+fp.BitmapBytes {
		t.Fatalf("HybridBytes = %d", fp.HybridBytes())
	}
}

// containers returns the number of distinct 64-value words the sorted
// set s touches: the container count of its compressed bitmap.
func containers(s []uint32) int {
	words := map[uint32]bool{}
	for _, v := range s {
		words[v>>6] = true
	}
	return len(words)
}

// TestHybridConcurrentMaterialize builds a graph's cached view from
// eight goroutines at once: every caller must get the same view.
func TestHybridConcurrentMaterialize(t *testing.T) {
	g := hybridTestGraph()
	views := make([]*HybridAdj, 8)
	var wg sync.WaitGroup
	for w := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			views[w] = g.Hybrid()
		}()
	}
	wg.Wait()
	for w, h := range views {
		if h != views[0] {
			t.Fatalf("worker %d saw a different view", w)
		}
	}
	if fp := views[0].Footprint(); fp.BitmapRows == 0 || fp != NewHybridAdj(g, 0).Footprint() {
		t.Fatalf("concurrently built view footprint %+v, want %+v", fp, NewHybridAdj(g, 0).Footprint())
	}
}

func TestGraphHybridCached(t *testing.T) {
	g := hybridTestGraph()
	if g.Hybrid() != g.Hybrid() {
		t.Fatal("Hybrid() must cache")
	}
	if g.Hybrid().Footprint() != NewHybridAdj(g, 0).Footprint() {
		t.Fatal("cached view must use the default hub threshold")
	}
}

func hubTestGraph() *Graph {
	// Star center 0 with 10 leaves, plus a 1-2 edge for a non-hub op.
	b := NewBuilder(11)
	for v := uint32(1); v <= 10; v++ {
		b.AddEdge(0, v)
	}
	b.AddEdge(1, 2)
	return b.Build()
}

func TestHybridDenseRows(t *testing.T) {
	g := hubTestGraph()
	h := NewHybridAdj(g, 5)
	if fp := h.Footprint(); fp.DenseRows != 1 || fp.DenseBytes != 8 {
		t.Fatalf("Footprint = %+v, want one one-word dense row (only the star center)", fp)
	}
	row := h.DenseRow(0)
	if row == nil {
		t.Fatal("center has no dense row")
	}
	for v := 0; v < g.NumVertices(); v++ {
		got := row[v>>6]&(1<<(uint(v)&63)) != 0
		if want := g.HasEdge(0, uint32(v)); got != want {
			t.Errorf("row bit %d = %v, want %v", v, got, want)
		}
	}
	if h.DenseRow(1) != nil {
		t.Error("leaf vertex has a dense row")
	}
	if got := h.RowBytes(0); got != 8 {
		t.Errorf("RowBytes(center) = %d, want 8", got)
	}
	var nilView *HybridAdj
	if nilView.DenseRow(0) != nil {
		t.Error("nil view returned a dense row")
	}
}

// starGraph returns a graph on n vertices with two stars of the given
// degrees: centers 0 and n-1, with disjoint leaves.
func starGraph(n int, degA, degB uint32) *Graph {
	b := NewBuilder(uint32(n))
	for i := uint32(1); i <= degA; i++ {
		b.AddEdge(0, i)
	}
	for i := uint32(0); i < degB; i++ {
		b.AddEdge(uint32(n-1), degA+1+i)
	}
	return b.Build()
}

func TestHubsCachedAndDefaultThreshold(t *testing.T) {
	g := hubTestGraph()
	if g.Hybrid() != g.Hybrid() {
		t.Error("Hybrid not cached")
	}
	// The default threshold floors at hubMinDegree, so this tiny graph
	// has no dense rows.
	if fp := g.Hybrid().Footprint(); fp.DenseRows != 0 || fp.DenseBytes != 0 {
		t.Errorf("tiny graph has dense rows: %+v", fp)
	}
	cases := []struct {
		n         int
		threshold uint32
	}{
		{300, hubMinDegree},                // n/32 = 9: the floor rules
		{32 * 200, 32 * 200 / hubFraction}, // n/32 = 200 > the floor
	}
	for _, c := range cases {
		g := starGraph(c.n, c.threshold, c.threshold-1)
		h := NewHybridAdj(g, 0)
		if h.DenseRow(0) == nil {
			t.Errorf("n=%d: degree %d (= threshold) has no dense row", c.n, c.threshold)
		}
		if h.DenseRow(uint32(c.n-1)) != nil {
			t.Errorf("n=%d: degree %d (< threshold) has a dense row", c.n, c.threshold-1)
		}
		if fp := h.Footprint(); fp.DenseRows != 1 || fp.DenseBytes != 8*int64((c.n+63)/64) {
			t.Errorf("n=%d: Footprint = %+v, want one full-universe row", c.n, fp)
		}
	}
}
