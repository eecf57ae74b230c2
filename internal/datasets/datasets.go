// Package datasets provides deterministic synthetic analogues of the six
// real-world graphs in the paper's Table 1. The originals (SNAP and
// GraMi distributions) cannot be bundled offline, so each analogue is
// generated to sit in the same regime along the axes the evaluation
// depends on:
//
//   - footprint class: whether the adjacency data fits the shared cache
//     (As, Mi fit; Yo, Pa, Lj, Or exceed it). Because the graphs are
//     scaled down, the experiments scale the shared cache with them
//     (ScaledSharedCacheBytes): the paper's 4 MB default becomes 1 MB and
//     the Figure 13 sweep 2/4/8/16 MB becomes 0.5/1/2/4 MB, preserving
//     every fits-vs-thrashes relationship;
//   - average degree: set sizes, and therefore available set- and
//     segment-level parallelism (Yo lowest, Or highest);
//   - degree skew: load imbalance across search trees (Pa low skew,
//     Yo/Lj/Or heavy tails);
//   - clustering: density of cliques and dense clusters (Mi and Lj rich,
//     Or less so relative to its degree, Pa sparse).
//
// Vertex counts are scaled down (recorded per dataset) so full experiment
// sweeps run in minutes; the paper's absolute magnitudes are not
// reproducible anyway, while the cross-graph ordering — which is what the
// evaluation interprets — is preserved.
package datasets

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"fingers/internal/graph"
	"fingers/internal/graph/gen"
)

// ScaledSharedCacheBytes is the shared-cache capacity the experiments use
// as the paper's "4 MB" operating point, scaled down with the analogue
// graphs (package comment). CacheScale converts any of the paper's
// Figure 13 capacities to the scaled system.
const (
	ScaledSharedCacheBytes = 1 << 20
	CacheScale             = 4 // paper bytes ÷ CacheScale = scaled bytes
)

// PaperStats records the original graph's Table 1 row.
type PaperStats struct {
	Vertices  int
	Edges     int64
	AvgDegree float64
	MaxDegree int
}

// Dataset describes one analogue.
type Dataset struct {
	// Name is the paper's two-letter mnemonic (As, Mi, Yo, Pa, Lj, Or).
	Name string
	// FullName is the original dataset's name.
	FullName string
	// Paper is the original's published statistics.
	Paper PaperStats
	// Build generates the analogue graph.
	Build func() *graph.Graph

	once sync.Once
	g    *graph.Graph
}

// Graph returns the analogue graph, generating it on first use and
// caching it for the process lifetime.
func (d *Dataset) Graph() *graph.Graph {
	d.once.Do(func() { d.g = d.Build() })
	return d.g
}

// registry lists the analogues in the paper's Table 1 order. The comment
// on each entry names the regime that makes it the original's analogue.
var registry = []*Dataset{
	// As: small collaboration graph, fits on chip, high clustering.
	{
		Name:     "As",
		FullName: "AstroPh",
		Paper:    PaperStats{Vertices: 18_800, Edges: 198_000, AvgDegree: 21.1, MaxDegree: 504},
		Build: func() *graph.Graph {
			return gen.PowerLawCluster(3000, 10, 0.50, 101)
		},
	},
	// Mi: small co-authorship graph, fits on chip, clique-rich.
	{
		Name:     "Mi",
		FullName: "Mico",
		Paper:    PaperStats{Vertices: 80_000, Edges: 432_000, AvgDegree: 10.8, MaxDegree: 936},
		Build: func() *graph.Graph {
			base := gen.PowerLawCluster(6000, 4, 0.85, 102)
			return gen.WithPlantedCliques(base, 80, 6, 202)
		},
	},
	// Yo: large graph, lowest average degree, small sets limit parallelism.
	{
		Name:     "Yo",
		FullName: "Youtube",
		Paper:    PaperStats{Vertices: 1_100_000, Edges: 3_000_000, AvgDegree: 5.3, MaxDegree: 28_754},
		Build: func() *graph.Graph {
			return gen.PowerLawCluster(120_000, 2, 0.15, 103)
		},
	},
	// Pa: large graph, low degree skew, much data but limited work.
	{
		Name:     "Pa",
		FullName: "Patents",
		Paper:    PaperStats{Vertices: 3_800_000, Edges: 16_500_000, AvgDegree: 8.8, MaxDegree: 793},
		Build: func() *graph.Graph {
			return gen.ErdosRenyi(150_000, 660_000, 104)
		},
	},
	// Lj: large social graph exceeding the shared cache, rich dense structure.
	{
		Name:     "Lj",
		FullName: "LiveJournal",
		Paper:    PaperStats{Vertices: 4_800_000, Edges: 42_900_000, AvgDegree: 17.7, MaxDegree: 20_333},
		Build: func() *graph.Graph {
			return gen.PowerLawCluster(40_000, 9, 0.55, 105)
		},
	},
	// Or: largest and densest, highest degree, fewer dense clusters than Lj.
	{
		Name:     "Or",
		FullName: "Orkut",
		Paper:    PaperStats{Vertices: 3_100_000, Edges: 117_200_000, AvgDegree: 76.3, MaxDegree: 33_313},
		Build: func() *graph.Graph {
			return gen.PowerLawCluster(12_000, 16, 0.35, 106)
		},
	},
}

// Names returns the dataset mnemonics in Table 1 order.
func Names() []string {
	out := make([]string, len(registry))
	for i, d := range registry {
		out[i] = d.Name
	}
	return out
}

// NotFoundError reports an unknown dataset name with enough structure
// for callers to build rich error surfaces — an HTTP 404 JSON body, a
// CLI hint — without parsing the message: the rejected name, the
// sorted valid mnemonics, and the nearest plausible match (empty when
// nothing is within typo distance).
type NotFoundError struct {
	Name       string
	Known      []string
	Suggestion string
}

// Error renders the message ByName has always produced, so callers
// that do display the string see no change.
func (e *NotFoundError) Error() string {
	if e.Suggestion != "" {
		return fmt.Sprintf("datasets: unknown dataset %q (did you mean %q? known: %v)", e.Name, e.Suggestion, e.Known)
	}
	return fmt.Sprintf("datasets: unknown dataset %q (known: %v)", e.Name, e.Known)
}

// ByName returns the dataset with the given mnemonic. An unknown name
// is reported as a *NotFoundError carrying the full list of valid
// names and, when one is close enough to look like a typo, a
// nearest-match suggestion.
func ByName(name string) (*Dataset, error) {
	for _, d := range registry {
		if d.Name == name || strings.EqualFold(d.Name, name) || strings.EqualFold(d.FullName, name) {
			return d, nil
		}
	}
	known := Names()
	sort.Strings(known)
	return nil, &NotFoundError{Name: name, Known: known, Suggestion: nearest(name)}
}

// Resolve loads a graph argument as the CLIs and JobSpec take it: a
// bundled dataset mnemonic resolves to its cached analogue, anything
// else is read as a graph file (binary CSR for ".bin", SNAP-style edge
// list otherwise). A bare name with no path shape that is neither a
// dataset nor a file was probably meant as a dataset, so it reports
// ByName's *NotFoundError (with its did-you-mean hint) rather than a
// file-open failure.
func Resolve(arg string) (*graph.Graph, error) {
	d, derr := ByName(arg)
	if derr == nil {
		return d.Graph(), nil
	}
	g, ferr := graph.LoadFile(arg)
	if ferr != nil {
		if !strings.ContainsAny(arg, "./\\") {
			return nil, derr
		}
		return nil, ferr
	}
	return g, nil
}

// nearest returns the registered mnemonic or full name closest to name,
// or "" when nothing is within typo distance.
func nearest(name string) string {
	var cands []string
	for _, d := range registry {
		cands = append(cands, d.Name, d.FullName)
	}
	return Suggest(name, cands)
}

// Suggest returns the candidate with the smallest case-insensitive edit
// distance from name, or "" when nothing is within a plausible typo
// distance (2 edits, and strictly closer than the name's own length).
// It powers ByName's did-you-mean hint; registries that extend the
// bundled set use it to build the same NotFoundError shape over their
// own name list.
func Suggest(name string, candidates []string) string {
	lower := strings.ToLower(name)
	best, bestDist := "", len(lower)
	for _, cand := range candidates {
		if cand == "" {
			continue
		}
		if dist := editDistance(lower, strings.ToLower(cand)); dist < bestDist {
			best, bestDist = cand, dist
		}
	}
	if bestDist > 2 {
		return ""
	}
	return best
}

// editDistance returns the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// All returns every dataset in Table 1 order.
func All() []*Dataset { return registry }

// Small returns the datasets whose adjacency fits the default 4 MB shared
// cache (the paper's As and Mi class).
func Small() []*Dataset {
	var out []*Dataset
	for _, d := range registry {
		if d.Name == "As" || d.Name == "Mi" {
			out = append(out, d)
		}
	}
	return out
}

// Table1 renders the dataset table: the original's published statistics
// beside the analogue's measured ones.
func Table1() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s %-12s | %-32s | %-32s\n", "", "", "paper original", "synthetic analogue (this repo)")
	fmt.Fprintf(&sb, "%-4s %-12s | %10s %11s %5s %6s | %10s %11s %5s %6s\n",
		"name", "dataset", "vertices", "edges", "avgD", "maxD", "vertices", "edges", "avgD", "maxD")
	for _, d := range registry {
		st := graph.ComputeStats(d.Graph())
		fmt.Fprintf(&sb, "%-4s %-12s | %10d %11d %5.1f %6d | %10d %11d %5.1f %6d\n",
			d.Name, d.FullName,
			d.Paper.Vertices, d.Paper.Edges, d.Paper.AvgDegree, d.Paper.MaxDegree,
			st.Vertices, st.Edges, st.AvgDegree, st.MaxDegree)
	}
	return sb.String()
}
