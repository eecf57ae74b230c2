package datasets

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"fingers/internal/graph"
	"fingers/internal/mem"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"As", "Mi", "Yo", "Pa", "Lj", "Or"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("names[%d] = %s, want %s (Table 1 order)", i, got[i], want[i])
		}
	}
}

func TestByName(t *testing.T) {
	for _, key := range []string{"Mi", "mi", "Mico"} {
		d, err := ByName(key)
		if err != nil || d.Name != "Mi" {
			t.Errorf("ByName(%q) = %v, %v", key, d, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestGraphsValidAndCached(t *testing.T) {
	for _, d := range All() {
		g := d.Graph()
		if g != d.Graph() {
			t.Errorf("%s: graph not cached", d.Name)
		}
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Errorf("%s: empty graph", d.Name)
		}
	}
}

// TestRegimePreserved checks the properties the evaluation depends on
// (package comment): footprint class, degree ordering, and skew.
func TestRegimePreserved(t *testing.T) {
	stats := map[string]graph.Stats{}
	adj := map[string]int64{}
	for _, d := range All() {
		g := d.Graph()
		stats[d.Name] = graph.ComputeStats(g)
		adj[d.Name] = g.TotalAdjacencyBytes()
	}
	cache := int64(ScaledSharedCacheBytes)
	// As and Mi fit in the scaled shared cache; the rest exceed it.
	for _, n := range []string{"As", "Mi"} {
		if adj[n] >= cache {
			t.Errorf("%s adjacency (%d B) should fit the %d B cache", n, adj[n], cache)
		}
	}
	for _, n := range []string{"Yo", "Pa", "Lj", "Or"} {
		if adj[n] <= cache {
			t.Errorf("%s adjacency (%d B) should exceed the %d B cache", n, adj[n], cache)
		}
	}
	// The scaled default must stay a CacheScale-fold reduction of the
	// paper's 4 MB so Figure 13's capacity labels translate directly.
	if ScaledSharedCacheBytes*CacheScale != mem.DefaultSharedCacheConfig().CapacityBytes {
		t.Error("scaled cache capacity no longer matches the paper default")
	}
	// Yo has the lowest average degree; Or the highest (Table 1).
	for n, st := range stats {
		if n == "Yo" {
			continue
		}
		if st.AvgDegree <= stats["Yo"].AvgDegree {
			t.Errorf("Yo should have the lowest average degree, but %s has %.1f ≤ %.1f",
				n, st.AvgDegree, stats["Yo"].AvgDegree)
		}
		if n != "Or" && st.AvgDegree >= stats["Or"].AvgDegree {
			t.Errorf("Or should have the highest average degree, but %s has %.1f ≥ %.1f",
				n, st.AvgDegree, stats["Or"].AvgDegree)
		}
	}
	// Pa has low skew (max within ~30× average, like Patents' 793 vs 8.8
	// being far below the social graphs' ratios); the social graphs have
	// heavy tails (max over 30× average).
	paSkew := float64(stats["Pa"].MaxDegree) / stats["Pa"].AvgDegree
	if paSkew > 30 {
		t.Errorf("Pa skew = %.0f×, want low-skew regime", paSkew)
	}
	for _, n := range []string{"Yo", "Lj", "Or"} {
		skew := float64(stats[n].MaxDegree) / stats[n].AvgDegree
		if skew < 10 {
			t.Errorf("%s skew = %.0f×, want heavy tail", n, skew)
		}
	}
}

func TestSmallSubset(t *testing.T) {
	small := Small()
	if len(small) != 2 || small[0].Name != "As" || small[1].Name != "Mi" {
		t.Errorf("Small() = %v", small)
	}
}

func TestTable1Renders(t *testing.T) {
	out := Table1()
	for _, want := range []string{"AstroPh", "Orkut", "paper original", "analogue"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 8 {
		t.Errorf("Table1 row count unexpected:\n%s", out)
	}
}

func TestByNameUnknownListsValidNames(t *testing.T) {
	_, err := ByName("nosuch")
	if err == nil {
		t.Fatal("expected an error for an unknown dataset")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid name %q", err, name)
		}
	}
}

func TestByNameSuggestsNearestMatch(t *testing.T) {
	cases := []struct {
		typo, want string
	}{
		{"Mj", "Mi"},       // one substitution off a mnemonic
		{"LJ!", "Lj"},      // case fold plus one insertion
		{"Orkot", "Orkut"}, // full-name typo
		{"MiCoo", "Mico"},  // full-name insertion
	}
	for _, c := range cases {
		_, err := ByName(c.typo)
		if err == nil {
			t.Fatalf("%q: expected an error", c.typo)
		}
		want := fmt.Sprintf("did you mean %q", c.want)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %q is missing suggestion %q", c.typo, err, c.want)
		}
	}
}

func TestByNameNoSuggestionWhenFar(t *testing.T) {
	_, err := ByName("zzzzzzzz")
	if err == nil {
		t.Fatal("expected an error")
	}
	if strings.Contains(err.Error(), "did you mean") {
		t.Errorf("error %q suggests a match for a hopeless name", err)
	}
}

func TestByNameStructuredError(t *testing.T) {
	_, err := ByName("Mj")
	if err == nil {
		t.Fatal("expected an error")
	}
	var nf *NotFoundError
	if !errors.As(err, &nf) {
		t.Fatalf("error is %T, want *NotFoundError", err)
	}
	if nf.Name != "Mj" || nf.Suggestion != "Mi" {
		t.Errorf("NotFoundError %+v, want Name=Mj Suggestion=Mi", nf)
	}
	if len(nf.Known) != len(Names()) {
		t.Errorf("Known has %d names, want %d", len(nf.Known), len(Names()))
	}
}

// TestResolveBareNameError pins the one graph-argument resolver the
// CLIs and JobSpec share: a mnemonic loads the dataset, a bare unknown
// name is the structured did-you-mean error, and a path-shaped miss is
// the file error naming the path.
func TestResolveBareNameError(t *testing.T) {
	if g, err := Resolve("Mi"); err != nil || g == nil {
		t.Fatalf("Resolve(Mi) = %v, %v", g, err)
	}
	_, err := Resolve("Mii")
	var nf *NotFoundError
	if !errors.As(err, &nf) {
		t.Fatalf("bare unknown name: error %T %v, want *NotFoundError", err, err)
	}
	if nf.Name != "Mii" || nf.Suggestion != "Mi" {
		t.Errorf("NotFoundError %+v, want Name=Mii Suggestion=Mi", nf)
	}
	_, err = Resolve("no/such/file.txt")
	if err == nil || errors.As(err, &nf) || !strings.Contains(err.Error(), "no/such/file.txt") {
		t.Errorf("path-shaped miss: %v, want a file error naming the path", err)
	}
}

func TestSuggestOverCustomCandidates(t *testing.T) {
	cands := []string{"As", "Mi", "wiki-local"}
	if got := Suggest("wiki-locl", cands); got != "wiki-local" {
		t.Errorf("Suggest = %q, want wiki-local", got)
	}
	if got := Suggest("completely-different", cands); got != "" {
		t.Errorf("Suggest for a hopeless name = %q, want empty", got)
	}
}
