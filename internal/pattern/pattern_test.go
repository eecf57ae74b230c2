package pattern

import (
	"testing"
)

// mustNew builds a pattern through the validating constructor; the
// panic-contract and New/TryNew equivalence tests are the only remaining
// callers of the deprecated New.
func mustNew(t *testing.T, n int, edges [][2]int) Pattern {
	t.Helper()
	p, err := TryNew(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewAndAccessors(t *testing.T) {
	p := TailedTriangle()
	if p.Size() != 4 || len(p.Edges()) != 4 {
		t.Fatalf("size=%d edges=%v", p.Size(), p.Edges())
	}
	if !p.HasEdge(0, 1) || !p.HasEdge(1, 0) || p.HasEdge(1, 3) {
		t.Error("adjacency wrong")
	}
	if p.Degree(0) != 3 || p.Degree(3) != 1 {
		t.Error("degrees wrong")
	}
}

func TestNewPanics(t *testing.T) {
	cases := []func(){
		func() { New(0, nil) },
		func() { New(9, nil) },
		func() { New(3, [][2]int{{0, 3}}) },
		func() { New(3, [][2]int{{1, 1}}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestIsConnected(t *testing.T) {
	if !Triangle().IsConnected() {
		t.Error("triangle not connected")
	}
	disconnected := mustNew(t, 4, [][2]int{{0, 1}, {2, 3}})
	if disconnected.IsConnected() {
		t.Error("disconnected pattern reported connected")
	}
	if !mustNew(t, 1, nil).IsConnected() {
		t.Error("single vertex should be connected")
	}
}

func TestAutomorphismCounts(t *testing.T) {
	cases := []struct {
		name string
		p    Pattern
		want int
	}{
		{"triangle", Triangle(), 6},              // S3
		{"4-clique", Clique(4), 24},              // S4
		{"wedge", Wedge(), 2},                    // swap leaves
		{"tailed triangle", TailedTriangle(), 2}, // swap u1,u2
		{"4-cycle", Cycle(4), 8},                 // dihedral D4
		{"diamond", Diamond(), 4},                // swap degree-2 pair × swap degree-3 pair
		{"path-4", PathOf(4), 2},                 // reversal
	}
	for _, c := range cases {
		if got := len(c.p.Automorphisms()); got != c.want {
			t.Errorf("%s: |Aut| = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAutomorphismsPreserveAdjacency(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, perm := range p.Automorphisms() {
			if !p.Relabel(perm).Equal(p) {
				t.Errorf("%s: %v is not an automorphism", name, perm)
			}
		}
	}
}

func TestCanonicalCode(t *testing.T) {
	d2 := mustNew(t, 4, [][2]int{{1, 0}, {1, 2}, {1, 3}, {0, 3}, {3, 2}})
	if Diamond().CanonicalCode() != d2.CanonicalCode() {
		t.Error("isomorphic patterns have different canonical codes")
	}
	if Diamond().CanonicalCode() == Cycle(4).CanonicalCode() {
		t.Error("non-isomorphic patterns share canonical code")
	}
	if Triangle().CanonicalCode() == Wedge().CanonicalCode() {
		t.Error("triangle and wedge share canonical code")
	}
}

func TestConnectedSubpatternsOfSize(t *testing.T) {
	// Known counts of connected graphs on k vertices: 1, 1, 2, 6, 21.
	wants := map[int]int{1: 1, 2: 1, 3: 2, 4: 6, 5: 21}
	for k, want := range wants {
		if got := len(ConnectedSubpatternsOfSize(k)); got != want {
			t.Errorf("size %d: %d connected patterns, want %d", k, got, want)
		}
	}
}

func TestByNameLibrary(t *testing.T) {
	shapes := map[string]struct{ n, m int }{
		"tc":    {3, 3},
		"4cl":   {4, 6},
		"5cl":   {5, 10},
		"tt":    {4, 4},
		"cyc":   {4, 4},
		"dia":   {4, 5},
		"wedge": {3, 2},
		"house": {5, 6},
	}
	for name, want := range shapes {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Size() != want.n || len(p.Edges()) != want.m {
			t.Errorf("%s: size=%d edges=%d, want %d/%d", name, p.Size(), len(p.Edges()), want.n, want.m)
		}
		if !p.IsConnected() {
			t.Errorf("%s: not connected", name)
		}
	}
	if _, err := ByName("nonsense"); err == nil {
		t.Error("ByName accepted unknown name")
	}
}

func TestStringRendering(t *testing.T) {
	got := Triangle().String()
	want := "pattern(3): 0-1 0-2 1-2"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestRelabelIdentity(t *testing.T) {
	p := House()
	id := []int{0, 1, 2, 3, 4}
	if !p.Relabel(id).Equal(p) {
		t.Error("identity relabel changed pattern")
	}
}

func TestTryNewErrors(t *testing.T) {
	if _, err := TryNew(0, nil); err == nil {
		t.Error("size 0: expected an error")
	}
	if _, err := TryNew(MaxSize+1, nil); err == nil {
		t.Error("oversized pattern: expected an error")
	}
	if _, err := TryNew(3, [][2]int{{0, 3}}); err == nil {
		t.Error("out-of-range edge: expected an error")
	}
	if _, err := TryNew(3, [][2]int{{1, 1}}); err == nil {
		t.Error("self-loop: expected an error")
	}
	got, err := TryNew(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if want := New(3, [][2]int{{0, 1}, {1, 2}, {2, 0}}); got != want {
		t.Errorf("TryNew diverges from New: %v vs %v", got, want)
	}
}
