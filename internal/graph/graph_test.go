package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func buildTriangleWithTail(t *testing.T) *Graph {
	t.Helper()
	// Vertices 0-1-2 form a triangle; 3 hangs off vertex 0.
	return FromEdges(4, []Edge{{0, 1}, {1, 2}, {0, 2}, {0, 3}})
}

// randomGraph builds a graph on n vertices from m random edge draws.
func randomGraph(seed int64, n uint32, m int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Uint32()%n, rng.Uint32()%n)
	}
	return b.Build()
}

func TestBuilderNormalizes(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(1, 0) // reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self-loop: dropped
	b.AddEdge(1, 2)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Neighbors(1) = %v", got)
	}
}

func TestBuilderGrowsVertexCount(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(5, 9)
	g := b.Build()
	if g.NumVertices() != 10 {
		t.Errorf("NumVertices = %d, want 10", g.NumVertices())
	}
}

func TestDegreeAndStats(t *testing.T) {
	g := buildTriangleWithTail(t)
	if g.Degree(0) != 3 || g.Degree(3) != 1 {
		t.Errorf("degrees = %d, %d", g.Degree(0), g.Degree(3))
	}
	st := ComputeStats(g)
	if st.Vertices != 4 || st.Edges != 4 || st.MaxDegree != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.AvgDegree != 2.0 {
		t.Errorf("avg degree = %v, want 2", st.AvgDegree)
	}
}

func TestHasEdge(t *testing.T) {
	g := buildTriangleWithTail(t)
	cases := []struct {
		u, v uint32
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {1, 3, false}, {2, 3, false}, {0, 3, true},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := buildTriangleWithTail(t)
	edges := g.Edges()
	g2 := FromEdges(uint32(g.NumVertices()), edges)
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d vs %d", g2.NumEdges(), g.NumEdges())
	}
	for _, e := range edges {
		if !g2.HasEdge(e.U, e.V) {
			t.Errorf("edge %v lost in round trip", e)
		}
	}
}

func TestAddressingModel(t *testing.T) {
	g := buildTriangleWithTail(t)
	if g.NeighborBytes(0) != 12 {
		t.Errorf("NeighborBytes(0) = %d, want 12", g.NeighborBytes(0))
	}
	if g.NeighborAddr(0) != 0 {
		t.Errorf("NeighborAddr(0) = %d, want 0", g.NeighborAddr(0))
	}
	if g.TotalAdjacencyBytes() != 4*2*g.NumEdges() {
		t.Errorf("TotalAdjacencyBytes = %d", g.TotalAdjacencyBytes())
	}
	// Address ranges of distinct vertices must not overlap.
	end0 := g.NeighborAddr(0) + g.NeighborBytes(0)
	if g.NeighborAddr(1) < end0 {
		t.Error("neighbor address ranges overlap")
	}
}

func TestDegreeOrder(t *testing.T) {
	g := buildTriangleWithTail(t)
	order := g.DegreeOrder()
	if order[0] != 0 {
		t.Errorf("highest-degree vertex = %d, want 0", order[0])
	}
	for i := 1; i < len(order); i++ {
		if g.Degree(order[i-1]) < g.Degree(order[i]) {
			t.Error("DegreeOrder not descending")
		}
	}
	// A random graph has many degree ties: the counting sort must break
	// them by ascending ID, exactly as the comparator sort it replaced.
	g = randomGraph(5, 500, 1500)
	want := make([]uint32, g.NumVertices())
	for i := range want {
		want[i] = uint32(i)
	}
	sort.Slice(want, func(i, j int) bool {
		di, dj := g.Degree(want[i]), g.Degree(want[j])
		if di != dj {
			return di > dj
		}
		return want[i] < want[j]
	})
	if got := g.DegreeOrder(); !slices.Equal(got, want) {
		t.Errorf("DegreeOrder differs from the comparator order:\n got %v\nwant %v", got, want)
	}
	if got := FromEdges(0, nil).DegreeOrder(); len(got) != 0 {
		t.Errorf("empty graph order = %v", got)
	}
}

// TestDegreeOrderConcurrent checks that concurrent first callers all get
// the one cached slice (run under -race).
func TestDegreeOrderConcurrent(t *testing.T) {
	g := randomGraph(6, 300, 900)
	got := make([][]uint32, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = g.DegreeOrder()
		}()
	}
	wg.Wait()
	for i, o := range got {
		if len(o) != g.NumVertices() || &o[0] != &got[0][0] {
			t.Fatalf("caller %d got a different slice", i)
		}
	}
}

var orderSink []uint32

func BenchmarkDegreeOrder(b *testing.B) {
	g := randomGraph(7, 1<<16, 1<<19)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh graph value per call, so each iteration pays the sort,
		// not the cached lookup.
		orderSink = (&Graph{offsets: g.offsets, neigh: g.neigh}).DegreeOrder()
	}
}

func TestEdgeListTextRoundTrip(t *testing.T) {
	g := buildTriangleWithTail(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Errorf("round trip changed shape: %d/%d vs %d/%d",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# comment\n% also comment\n\n0 1\n1 2\n"
	g, err := ReadEdgeList(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "1 x\n"} {
		if _, err := ReadEdgeList(bytes.NewBufferString(in)); err == nil {
			t.Errorf("ReadEdgeList(%q) succeeded, want error", in)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewBuilder(50)
	for i := 0; i < 200; i++ {
		b.AddEdge(rng.Uint32()%50, rng.Uint32()%50)
	}
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("binary round trip changed shape")
	}
	for v := 0; v < g.NumVertices(); v++ {
		a, b := g.Neighbors(uint32(v)), g2.Neighbors(uint32(v))
		if len(a) != len(b) {
			t.Fatalf("vertex %d: neighbor count differs", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d: neighbors differ", v)
			}
		}
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewBufferString("not a graph at all, sorry")); err == nil {
		t.Error("ReadBinary accepted garbage")
	}
}

func TestBuildAlwaysValid(t *testing.T) {
	f := func(pairs [][2]uint32) bool {
		b := NewBuilder(0)
		for _, p := range pairs {
			b.AddEdge(p[0]%64, p[1]%64)
		}
		return b.Build().Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNeighborListsAreSortedSets(t *testing.T) {
	f := func(pairs [][2]uint32) bool {
		b := NewBuilder(0)
		for _, p := range pairs {
			b.AddEdge(p[0]%100, p[1]%100)
		}
		g := b.Build()
		for v := 0; v < g.NumVertices(); v++ {
			ns := g.Neighbors(uint32(v))
			for i := 1; i < len(ns); i++ {
				if ns[i] <= ns[i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.AvgDegree() != 0 {
		t.Error("empty graph not empty")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}
