package service

import (
	"errors"
	"sync"
	"testing"

	"fingers/internal/datasets"
	"fingers/internal/graph"
	"fingers/internal/graph/gen"
)

func TestRegistryResolve(t *testing.T) {
	r := NewRegistry()
	for _, tc := range []struct{ in, want string }{
		{"Mi", "Mi"},
		{"mi", "Mi"},   // case-insensitive mnemonic
		{"Mico", "Mi"}, // full dataset name
		{"Lj", "Lj"},
	} {
		got, err := r.Resolve(tc.in)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("Resolve(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestRegistryResolveNotFound(t *testing.T) {
	r := NewRegistry()
	r.Add("extra", func() (*graph.Graph, error) { return gen.ErdosRenyi(10, 20, 1), nil })
	_, err := r.Resolve("extro")
	if err == nil {
		t.Fatal("Resolve of unknown name succeeded")
	}
	var nf *datasets.NotFoundError
	if !errors.As(err, &nf) {
		t.Fatalf("error is %T, want *datasets.NotFoundError", err)
	}
	if nf.Suggestion != "extra" {
		t.Errorf("Suggestion = %q, want %q", nf.Suggestion, "extra")
	}
	found := false
	for _, k := range nf.Known {
		if k == "extra" {
			found = true
		}
	}
	if !found {
		t.Errorf("Known %v does not include the registered extra graph", nf.Known)
	}
}

// TestRegistryBuildOnce hammers one entry from many goroutines and
// checks the build ran exactly once and everyone shares the pointer.
// Run with -race to verify the publication is sound.
func TestRegistryBuildOnce(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	builds := 0
	r.Add("g", func() (*graph.Graph, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		return gen.ErdosRenyi(100, 300, 7), nil
	})
	const n = 16
	entries := make([]*GraphEntry, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ge, err := r.Get("g")
			if err != nil {
				t.Error(err)
				return
			}
			entries[i] = ge
			// List may race with the build; it must never block or crash.
			r.List()
		}(i)
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
	for i := 1; i < n; i++ {
		if entries[i] != entries[0] {
			t.Fatalf("goroutine %d got a different entry pointer", i)
		}
	}
	if st := graph.ComputeStats(entries[0].Graph); entries[0].Info.Vertices != st.Vertices || entries[0].Info.Edges != st.Edges {
		t.Errorf("Info %+v does not mirror the graph's stats %+v", entries[0].Info, st)
	}
}

func TestRegistryListNonForcing(t *testing.T) {
	r := NewRegistry()
	built := false
	r.Add("lazy", func() (*graph.Graph, error) {
		built = true
		return gen.ErdosRenyi(10, 20, 3), nil
	})
	var before GraphSummary
	found := false
	for _, s := range r.List() {
		if s.Name == "lazy" {
			before, found = s, true
		}
	}
	if !found {
		t.Fatal("lazy graph missing from List")
	}
	if built || before.Loaded {
		t.Fatal("List forced a load")
	}
	if _, err := r.Get("lazy"); err != nil {
		t.Fatal(err)
	}
	for _, s := range r.List() {
		if s.Name == "lazy" {
			if !s.Loaded || s.Vertices != 10 {
				t.Errorf("after Get: %+v, want loaded with 10 vertices", s)
			}
		}
	}
}

// TestRegistryFootprintColumns loads a dense graph and checks the
// hybrid representation mix flows from the load-time footprint into
// both the shared run-record Info and the /v1/graphs listing row.
func TestRegistryFootprintColumns(t *testing.T) {
	r := NewRegistry()
	g := gen.ErdosRenyi(512, 40000, 7)
	r.Add("dense", func() (*graph.Graph, error) { return g, nil })
	ge, err := r.Get("dense")
	if err != nil {
		t.Fatal(err)
	}
	fp := g.Hybrid().Footprint()
	if fp.DenseRows+fp.BitmapRows == 0 {
		t.Fatal("dense fixture stores no rows; pick a denser graph")
	}
	if ge.Info.DenseRows != fp.DenseRows || ge.Info.BitmapRows != fp.BitmapRows ||
		ge.Info.HybridBytes != fp.HybridBytes() {
		t.Errorf("Info mix = {%d %d %d}, want {%d %d %d}",
			ge.Info.DenseRows, ge.Info.BitmapRows, ge.Info.HybridBytes,
			fp.DenseRows, fp.BitmapRows, fp.HybridBytes())
	}
	for _, s := range r.List() {
		if s.Name != "dense" {
			continue
		}
		if s.DenseRows != fp.DenseRows || s.BitmapRows != fp.BitmapRows ||
			s.HybridBytes != fp.HybridBytes() {
			t.Errorf("List mix = {%d %d %d}, want {%d %d %d}",
				s.DenseRows, s.BitmapRows, s.HybridBytes,
				fp.DenseRows, fp.BitmapRows, fp.HybridBytes())
		}
	}
}

func TestRegistryBuildError(t *testing.T) {
	r := NewRegistry()
	r.Add("bad", func() (*graph.Graph, error) { return nil, errors.New("boom") })
	if _, err := r.Get("bad"); err == nil {
		t.Fatal("Get of failing builder succeeded")
	}
	// The failure is sticky: the build does not retry.
	if _, err := r.Get("bad"); err == nil {
		t.Fatal("second Get of failing builder succeeded")
	}
}
