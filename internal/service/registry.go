// Package service is the mining-as-a-service layer behind cmd/fingersd:
// a graph registry that loads and preprocesses each dataset once and
// shares the immutable result across requests, a bounded admission
// queue that runs fingers.JobSpec jobs with per-request deadlines, and
// the HTTP+JSON surface (job lifecycle, fingers.run/v1 progress
// streams, health) that exposes both.
package service

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"fingers"
	"fingers/internal/datasets"
	"fingers/internal/graph"
)

// GraphEntry is one fully preprocessed workload graph: the immutable
// CSR, with its hybrid storage view (the rows the adaptive kernels
// probe) warmed, and its run-record summary. Entries are built once and
// shared by every job that names the graph; all fields are read-only
// after construction and safe for concurrent use.
type GraphEntry struct {
	// Graph is the immutable CSR.
	Graph *graph.Graph
	// Info is the graph's Table-1 statistics and representation mix,
	// computed once at load and reused by every record the service
	// emits for this graph.
	Info fingers.GraphInfo
}

// regEntry is one registry slot: the build runs at most once, and every
// concurrent Get for the same name shares the single result. The built
// entry is published through an atomic pointer so List can report
// loaded-ness without blocking on (or racing with) an in-flight build;
// err is only read after once.Do returns, which orders it.
type regEntry struct {
	name  string
	build func() (*graph.Graph, error)

	once sync.Once
	ge   atomic.Pointer[GraphEntry]
	err  error
}

// Registry resolves graph names to preprocessed GraphEntry values. It
// is seeded with the bundled dataset analogues and can be extended with
// named graphs (files, test fixtures). Loading is lazy and
// deduplicated: the first Get of a name builds the graph, its stats,
// and its hybrid storage view exactly once; concurrent requests block
// on that build and then share the immutable entry.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*regEntry
	names   []string // registration order, for stable listings
}

// NewRegistry returns a registry seeded with every bundled dataset
// analogue (As/Mi/Yo/Pa/Lj/Or), none of them loaded yet.
func NewRegistry() *Registry {
	r := &Registry{entries: map[string]*regEntry{}}
	for _, d := range datasets.All() {
		d := d
		r.add(d.Name, func() (*graph.Graph, error) { return d.Graph(), nil })
	}
	return r
}

// add registers one lazily built graph under name.
func (r *Registry) add(name string, build func() (*graph.Graph, error)) {
	r.entries[name] = &regEntry{name: name, build: build}
	r.names = append(r.names, name)
}

// Add registers an extra graph under name, replacing any previous
// registration. The build function runs at most once, on first Get.
func (r *Registry) Add(name string, build func() (*graph.Graph, error)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; !ok {
		r.names = append(r.names, name)
	}
	r.entries[name] = &regEntry{name: name, build: build}
}

// Names returns the registered graph names in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.names...)
}

// Resolve canonicalizes a graph name without loading anything: exact
// registry keys win, then the dataset aliases (case-insensitive
// mnemonic or full name). An unknown name is a *datasets.NotFoundError
// listing every registered name with a did-you-mean hint, which the
// HTTP layer maps to a 404 JSON body.
func (r *Registry) Resolve(name string) (string, error) {
	r.mu.Lock()
	if _, ok := r.entries[name]; ok {
		r.mu.Unlock()
		return name, nil
	}
	r.mu.Unlock()
	if d, err := datasets.ByName(name); err == nil {
		r.mu.Lock()
		_, ok := r.entries[d.Name]
		r.mu.Unlock()
		if ok {
			return d.Name, nil
		}
	}
	known := r.Names()
	sort.Strings(known)
	return "", &datasets.NotFoundError{Name: name, Known: known, Suggestion: datasets.Suggest(name, known)}
}

// Get returns the preprocessed entry for name, building it on first
// use. Concurrent calls for the same name perform one build.
func (r *Registry) Get(name string) (*GraphEntry, error) {
	canon, err := r.Resolve(name)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	e := r.entries[canon]
	r.mu.Unlock()
	e.once.Do(func() {
		g, err := e.build()
		if err != nil {
			e.err = fmt.Errorf("service: load graph %q: %w", e.name, err)
			return
		}
		if g == nil {
			e.err = fmt.Errorf("service: load graph %q: builder returned nil", e.name)
			return
		}
		// Summarizing warms the hybrid view, so its dense rows are built
		// before the first job's deadline starts, and fixes the
		// representation mix the service reports: tier assignment is a
		// pure function of the CSR, so the footprint is exact at load
		// time.
		e.ge.Store(&GraphEntry{Graph: g, Info: fingers.NewGraphInfo(e.name, g)})
	})
	return e.ge.Load(), e.err
}

// Preload eagerly builds the named graphs ("all" is every registered
// name), so the cost lands at daemon startup instead of inside the
// first job's deadline.
func (r *Registry) Preload(names ...string) error {
	if len(names) == 1 && names[0] == "all" {
		names = r.Names()
	}
	for _, n := range names {
		if _, err := r.Get(n); err != nil {
			return err
		}
	}
	return nil
}

// GraphSummary is one row of the GET /v1/graphs listing.
type GraphSummary struct {
	Name   string `json:"name"`
	Loaded bool   `json:"loaded"`
	// The statistics are present only once the graph has been loaded;
	// listing the registry never forces a load.
	Vertices  int     `json:"vertices,omitempty"`
	Edges     int64   `json:"edges,omitempty"`
	AvgDegree float64 `json:"avg_degree,omitempty"`
	MaxDegree int     `json:"max_degree,omitempty"`
	// Hybrid-storage representation mix and its memory footprint,
	// fixed at load time (tier assignment is a pure
	// function of the CSR).
	DenseRows   int   `json:"dense_rows,omitempty"`
	BitmapRows  int   `json:"bitmap_rows,omitempty"`
	HybridBytes int64 `json:"hybrid_bytes,omitempty"`
}

// List summarizes every registered graph without loading any.
func (r *Registry) List() []GraphSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GraphSummary, 0, len(r.names))
	for _, n := range r.names {
		e := r.entries[n]
		s := GraphSummary{Name: n}
		if ge := e.ge.Load(); ge != nil {
			s.Loaded = true
			s.Vertices = ge.Info.Vertices
			s.Edges = ge.Info.Edges
			s.AvgDegree = ge.Info.AvgDegree
			s.MaxDegree = ge.Info.MaxDegree
			s.DenseRows = ge.Info.DenseRows
			s.BitmapRows = ge.Info.BitmapRows
			s.HybridBytes = ge.Info.HybridBytes
		}
		out = append(out, s)
	}
	return out
}
