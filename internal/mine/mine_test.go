package mine

import (
	"slices"
	"testing"

	"fingers/internal/graph"
	"fingers/internal/graph/gen"
	"fingers/internal/pattern"
	"fingers/internal/plan"
)

var oracleGraphs = []struct {
	name string
	g    *graph.Graph
}{
	{"K6", gen.Complete(6)},
	{"ring8", gen.Ring(8)},
	{"star9", gen.Star(9)},
	{"er16", gen.ErdosRenyi(16, 40, 5)},
	{"er20-dense", gen.ErdosRenyi(20, 120, 9)},
	{"plc18", gen.PowerLawCluster(18, 3, 0.6, 2)},
}

var oraclePatterns = []string{"tc", "4cl", "5cl", "tt", "cyc", "dia", "wedge", "house"}

// TestCountMatchesOracle is the central correctness test: for every
// benchmark pattern and several small graphs, the plan-based count must
// equal the brute-force subgraph-isomorphism count, both with symmetry
// breaking (unique embeddings) and without (labeled embeddings), for both
// vertex- and edge-induced semantics.
func TestCountMatchesOracle(t *testing.T) {
	for _, tc := range oracleGraphs {
		for _, name := range oraclePatterns {
			p, err := pattern.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, edgeInduced := range []bool{false, true} {
				pl, err := plan.Compile(p, plan.Options{EdgeInduced: edgeInduced})
				if err != nil {
					t.Fatal(err)
				}
				got := Count(tc.g, pl)
				want := bruteForceUnique(tc.g, p, !edgeInduced)
				if got != want {
					t.Errorf("%s/%s edgeInduced=%v: count = %d, want %d",
						tc.name, name, edgeInduced, got, want)
				}
				plNoSB, err := plan.Compile(p, plan.Options{EdgeInduced: edgeInduced, NoSymmetryBreaking: true})
				if err != nil {
					t.Fatal(err)
				}
				gotLabeled := Count(tc.g, plNoSB)
				wantLabeled := bruteForceLabeled(tc.g, p, !edgeInduced)
				if gotLabeled != wantLabeled {
					t.Errorf("%s/%s edgeInduced=%v labeled: count = %d, want %d",
						tc.name, name, edgeInduced, gotLabeled, wantLabeled)
				}
				if aut := uint64(pl.AutSize); gotLabeled != got*aut {
					t.Errorf("%s/%s: labeled %d != unique %d × |Aut| %d",
						tc.name, name, gotLabeled, got, aut)
				}
			}
		}
	}
}

func TestKnownClosedFormCounts(t *testing.T) {
	// Triangles in K_n = C(n,3); 4-cliques = C(n,4); wedges (induced) = 0.
	k7 := gen.Complete(7)
	cases := []struct {
		pat  string
		want uint64
	}{
		{"tc", 35},  // C(7,3)
		{"4cl", 35}, // C(7,4)
		{"5cl", 21}, // C(7,5)
		{"wedge", 0},
		{"cyc", 0}, // no induced 4-cycles in a clique
		{"dia", 0}, // no induced diamonds in a clique
		{"tt", 0},
	}
	for _, c := range cases {
		p, _ := pattern.ByName(c.pat)
		pl := plan.MustCompile(p, plan.Options{})
		if got := Count(k7, pl); got != c.want {
			t.Errorf("K7/%s = %d, want %d", c.pat, got, c.want)
		}
	}
	// Edge-induced diamonds in K4: each 4-clique contains 6.
	p, _ := pattern.ByName("dia")
	pl := plan.MustCompile(p, plan.Options{EdgeInduced: true})
	if got := Count(gen.Complete(4), pl); got != 6 {
		t.Errorf("edge-induced diamonds in K4 = %d, want 6", got)
	}
	// Wedges in a star with h leaves = C(h,2).
	wp, _ := pattern.ByName("wedge")
	wpl := plan.MustCompile(wp, plan.Options{})
	if got := Count(gen.Star(9), wpl); got != 28 {
		t.Errorf("wedges in star9 = %d, want 28", got)
	}
	// 4-cycles in C8: exactly one 4-cycle? No — C8 has no induced C4. The
	// ring of length 4 has exactly one.
	cp, _ := pattern.ByName("cyc")
	cpl := plan.MustCompile(cp, plan.Options{})
	if got := Count(gen.Ring(4), cpl); got != 1 {
		t.Errorf("4-cycles in ring4 = %d, want 1", got)
	}
	if got := Count(gen.Ring(8), cpl); got != 0 {
		t.Errorf("induced 4-cycles in ring8 = %d, want 0", got)
	}
}

func TestCountParallelMatchesSerial(t *testing.T) {
	g := gen.PowerLawCluster(300, 4, 0.5, 3)
	for _, name := range []string{"tc", "tt", "cyc"} {
		p, _ := pattern.ByName(name)
		pl := plan.MustCompile(p, plan.Options{})
		serial := Count(g, pl)
		for _, workers := range []int{1, 2, 4, 0} {
			if got := CountParallel(g, pl, workers); got != serial {
				t.Errorf("%s workers=%d: %d != %d", name, workers, got, serial)
			}
		}
	}
}

func TestListEnumeratesValidEmbeddings(t *testing.T) {
	g := gen.Complete(5)
	p := pattern.Triangle()
	pl := plan.MustCompile(p, plan.Options{})
	seen := map[[3]uint32]bool{}
	List(g, pl, func(emb []uint32) bool {
		if len(emb) != 3 {
			t.Fatalf("embedding size %d", len(emb))
		}
		var key [3]uint32
		copy(key[:], emb)
		if seen[key] {
			t.Errorf("duplicate embedding %v", emb)
		}
		seen[key] = true
		// Every pair must be adjacent, vertices distinct.
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				if emb[i] == emb[j] || !g.HasEdge(emb[i], emb[j]) {
					t.Errorf("invalid embedding %v", emb)
				}
			}
		}
		return true
	})
	if len(seen) != 10 { // C(5,3)
		t.Errorf("listed %d triangles, want 10", len(seen))
	}
}

// TestListMatchesBruteForce checks List, whose leaves the engine builds
// on demand from counted nodes, against an oracle outside the engine:
// every listed embedding must be distinct and must map the plan's pattern
// (edges, and non-edges when vertex-induced) onto distinct vertices, and
// the number listed times |Aut| must equal bruteForceLabeled.
func TestListMatchesBruteForce(t *testing.T) {
	graphs := []*graph.Graph{gen.ErdosRenyi(16, 40, 5), gen.PowerLawCluster(18, 3, 0.6, 2)}
	for gi, g := range graphs {
		for _, name := range []string{"tc", "tt", "4cl", "cyc"} {
			for _, edgeInduced := range []bool{false, true} {
				pl := plan.MustCompile(mustPattern(t, name), plan.Options{EdgeInduced: edgeInduced})
				k := pl.K()
				seen := map[[4]uint32]bool{}
				List(g, pl, func(emb []uint32) bool {
					var key [4]uint32
					copy(key[:], emb)
					if seen[key] {
						t.Errorf("g%d/%s edgeInduced=%v: %v listed twice", gi, name, edgeInduced, emb)
					}
					seen[key] = true
					for i := 0; i < k; i++ {
						for j := i + 1; j < k; j++ {
							edge, adj := pl.Pattern.HasEdge(i, j), g.HasEdge(emb[i], emb[j])
							if emb[i] == emb[j] || edge && !adj || !edgeInduced && !edge && adj {
								t.Errorf("g%d/%s edgeInduced=%v: %v is not an embedding", gi, name, edgeInduced, emb)
							}
						}
					}
					return true
				})
				want := bruteForceLabeled(g, pl.Pattern, !edgeInduced)
				if got := uint64(len(seen)) * uint64(pl.AutSize); got != want {
					t.Errorf("g%d/%s edgeInduced=%v: listed %d × |Aut| %d = %d, brute force %d",
						gi, name, edgeInduced, len(seen), pl.AutSize, got, want)
				}
			}
		}
	}
}

func TestListEarlyStop(t *testing.T) {
	g := gen.Complete(6)
	pl := plan.MustCompile(pattern.Triangle(), plan.Options{})
	calls := 0
	List(g, pl, func([]uint32) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("visit called %d times after early stop, want 3", calls)
	}
}

func TestCountMulti3Motif(t *testing.T) {
	mp, err := plan.Motif(3, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// In K4: 4 triangles, 0 induced wedges. In P3: 1 wedge, 0 triangles.
	counts := CountMulti(gen.Complete(4), mp)
	var tri, wedge uint64
	for i, pl := range mp.Plans {
		if len(pl.Pattern.Edges()) == 3 {
			tri = counts[i]
		} else {
			wedge = counts[i]
		}
	}
	if tri != 4 || wedge != 0 {
		t.Errorf("K4 3-motif = tri %d wedge %d, want 4/0", tri, wedge)
	}
	counts = CountMulti(gen.Path(3), mp)
	for i, pl := range mp.Plans {
		if len(pl.Pattern.Edges()) == 3 {
			tri = counts[i]
		} else {
			wedge = counts[i]
		}
	}
	if tri != 0 || wedge != 1 {
		t.Errorf("P3 3-motif = tri %d wedge %d, want 0/1", tri, wedge)
	}
}

func TestMotifSumEqualsSubsetCount(t *testing.T) {
	// Every connected induced 3-subgraph is either a triangle or a wedge,
	// so the motif counts must sum to the number of connected 3-subsets.
	g := gen.ErdosRenyi(14, 30, 8)
	mp, _ := plan.Motif(3, plan.Options{})
	counts := CountMulti(g, mp)
	var total uint64
	for _, c := range counts {
		total += c
	}
	var want uint64
	n := g.NumVertices()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				ab := g.HasEdge(uint32(a), uint32(b))
				ac := g.HasEdge(uint32(a), uint32(c))
				bc := g.HasEdge(uint32(b), uint32(c))
				edges := 0
				for _, e := range []bool{ab, ac, bc} {
					if e {
						edges++
					}
				}
				if edges >= 2 {
					want++
				}
			}
		}
	}
	if total != want {
		t.Errorf("3-motif total = %d, want %d", total, want)
	}
}

// TestTaskInfoSharing checks the common-subexpression sharing the paper
// describes in §3.3: in a 4-clique all future candidate sets are updated
// by the same intersection, which the schedule runs once for both.
func TestTaskInfoSharing(t *testing.T) {
	g := gen.Complete(6)
	pl := plan.MustCompile(pattern.Clique(4), plan.Options{})
	e := NewEngine(g, pl)
	root, info0 := e.Start(0)
	if len(info0.Ops) != 0 {
		t.Errorf("level 0 of a clique should be pure inits, got %d ops", len(info0.Ops))
	}
	cands := e.Candidates(root)
	if len(cands) == 0 {
		t.Fatal("no candidates at level 1")
	}
	_, info1 := e.Extend(root, cands[0])
	if len(info1.Ops) != 1 {
		t.Fatalf("level 1 of 4-clique should share one intersect, got %d ops", len(info1.Ops))
	}
	if steps := buildSchedule(pl)[1]; len(steps) != 1 || !slices.Equal(steps[0].targets, []int{2, 3}) {
		t.Errorf("level-1 schedule = %+v, want one step targeting levels 2 and 3", steps)
	}
}

// TestTaskInfoTailedTriangle checks that distinct updates stay distinct:
// at level 1 of the tailed triangle, S2 needs an intersect and S3 a
// subtract.
func TestTaskInfoTailedTriangle(t *testing.T) {
	g := gen.Complete(6)
	pl := plan.MustCompile(pattern.TailedTriangle(), plan.Options{})
	e := NewEngine(g, pl)
	root, _ := e.Start(0)
	v := e.Candidates(root)[0]
	_, info := e.Extend(root, v)
	if len(info.Ops) != 2 {
		t.Fatalf("level 1 ops = %d, want 2", len(info.Ops))
	}
	kinds := map[string]bool{}
	for _, op := range info.Ops {
		kinds[op.Kind.String()] = true
		if op.LongVertex != v {
			t.Errorf("long input should be the new vertex's neighbor list")
		}
	}
	if !kinds["intersect"] || !kinds["subtract"] {
		t.Errorf("ops = %v", kinds)
	}
}

func TestEngineFetchVerticesIncludePending(t *testing.T) {
	// A pattern whose plan postpones: 4-cycle ordered so one level has a
	// pending init. Find any task with more than one fetch across a small
	// clique-ish graph; the postponed anti-subtraction must refetch the
	// ancestor's list.
	g := gen.ErdosRenyi(20, 80, 4)
	pl := plan.MustCompile(pattern.Cycle(4), plan.Options{})
	hasPending := false
	for _, lvl := range pl.Levels {
		for _, a := range lvl.Actions {
			if len(a.Pending) > 0 {
				hasPending = true
			}
		}
	}
	if !hasPending {
		t.Skip("compiler chose an order without postponement")
	}
	e := NewEngine(g, pl)
	found := false
	for v := 0; v < g.NumVertices() && !found; v++ {
		root, _ := e.Start(uint32(v))
		for _, c := range e.Candidates(root) {
			_, info := e.Extend(root, c)
			if len(info.FetchVertices) > 1 {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("no task fetched a postponed ancestor's neighbor list")
	}
}

func TestLeafCountPanicsOffLevel(t *testing.T) {
	g := gen.Complete(5)
	pl := plan.MustCompile(pattern.Clique(4), plan.Options{})
	e := NewEngine(g, pl)
	root, _ := e.Start(0)
	defer func() {
		if recover() == nil {
			t.Error("LeafCount on root of a 4-level plan did not panic")
		}
	}()
	e.LeafCount(root)
}

func TestEmptyGraphCounts(t *testing.T) {
	g := graph.NewBuilder(5).Build()
	pl := plan.MustCompile(pattern.Triangle(), plan.Options{})
	if got := Count(g, pl); got != 0 {
		t.Errorf("count on edgeless graph = %d", got)
	}
}
