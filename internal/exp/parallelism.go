package exp

import (
	"fmt"
	"strings"

	"fingers/internal/datasets"
	"fingers/internal/plan"
	"fingers/internal/profile"
)

// ParallelismRow is one (graph, pattern) measurement of the three
// fine-grained parallelism levels of §3.
type ParallelismRow struct {
	Graph, Pattern string
	Branch         float64 // children per interior task (§3.2)
	Sets           float64 // distinct set ops per task (§3.3)
	Segments       float64 // workloads per set op (§3.4)
}

// ParallelismResult is the §3 parallelism census across the benchmark
// grid — the quantitative backing for the paper's conclusion that
// "different patterns and graphs exhibit drastically different degrees of
// each fine-grained parallelism".
type ParallelismResult struct {
	Rows []ParallelismRow
}

// Parallelism measures the available branch-, set- and segment-level
// parallelism of every benchmark pattern on a subset of graphs (single
// patterns only; the profile of a multi-pattern run is the union of its
// members').
func Parallelism(opts Options) *ParallelismResult {
	graphNames := []string{"As", "Yo", "Lj"}
	if opts.Quick {
		graphNames = []string{"Mi"}
	}
	res := &ParallelismResult{}
	for _, gn := range graphNames {
		d, err := datasets.ByName(gn)
		if err != nil {
			panic(err)
		}
		g := d.Graph()
		maxRoots := 0
		if g.NumVertices() > 4000 {
			maxRoots = 4000 // profiles converge well before this
		}
		for _, name := range opts.patterns() {
			if name == "3mc" {
				continue
			}
			plans, err := plan.ForBenchmark(name)
			if err != nil {
				panic(err)
			}
			p := profile.Run(g, plans[0], profile.Config{MaxRoots: maxRoots})
			res.Rows = append(res.Rows, ParallelismRow{
				Graph:    gn,
				Pattern:  name,
				Branch:   p.MeanBranching(),
				Sets:     p.MeanOpsPerTask(),
				Segments: p.MeanWorkloadsPerOp(),
			})
		}
	}
	return res
}

// String renders the census.
func (r *ParallelismResult) String() string {
	var sb strings.Builder
	sb.WriteString("Fine-grained parallelism census (§3): mean available parallelism per level\n")
	fmt.Fprintf(&sb, "%-6s %-8s %10s %10s %10s\n", "graph", "pattern", "branch", "set", "segment")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-6s %-8s %10.2f %10.2f %10.2f\n",
			row.Graph, row.Pattern, row.Branch, row.Sets, row.Segments)
	}
	return sb.String()
}
