// Package profile quantifies the fine-grained parallelism a workload
// exposes — the analysis of the paper's §3. Walking a plan's search tree
// once, it measures the three levels FINGERS exploits:
//
//   - branch-level: how many sibling tasks each node spawns (§3.2) — the
//     scheduling slack pseudo-DFS task groups draw from;
//   - set-level: how many distinct candidate-set updates each task
//     carries after sharing (§3.3) — the concurrent operations one task
//     offers the IU array;
//   - segment-level: how many segment workloads each set operation
//     divides into (§3.4) — the intra-operation parallelism.
//
// The paper's §6.2 explains every speedup difference through these
// quantities (cliques have no set-level parallelism, tt has huge
// segment-level parallelism, Yo's low degrees bound everything); this
// package makes those claims measurable on any graph and pattern.
package profile

import (
	"fmt"
	"strings"

	"fingers/internal/graph"
	"fingers/internal/mine"
	"fingers/internal/plan"
	"fingers/internal/setops"
	"fingers/internal/stats"
)

// Config bounds a profiling pass.
type Config struct {
	// MaxRoots caps the number of root vertices walked; 0 walks all.
	// Profiles converge quickly, so a few thousand roots suffice on
	// large graphs.
	MaxRoots int
	// LongSegLen and ShortSegLen set the segment geometry used to count
	// segment-level workloads; zero values use the paper defaults.
	LongSegLen, ShortSegLen int
	// MaxLoad is the load-balance split threshold; zero uses the default.
	MaxLoad int
}

func (c Config) longSeg() int {
	if c.LongSegLen > 0 {
		return c.LongSegLen
	}
	return setops.DefaultLongSegLen
}

func (c Config) shortSeg() int {
	if c.ShortSegLen > 0 {
		return c.ShortSegLen
	}
	return setops.DefaultShortSegLen
}

func (c Config) maxLoad() int {
	if c.MaxLoad > 0 {
		return c.MaxLoad
	}
	return 2
}

// LevelProfile aggregates one tree level.
type LevelProfile struct {
	// Level is the tree depth (0 = root tasks).
	Level int
	// Tasks is the number of extension tasks executed at this level.
	Tasks int64
	// Branching summarizes the branch-level parallelism: the number of
	// children each task at this level spawns.
	Branching stats.Summary
	// OpsPerTask summarizes set-level parallelism: distinct set
	// operations per task after sharing.
	OpsPerTask stats.Summary
	// WorkloadsPerOp summarizes segment-level parallelism: balanced
	// workloads per set operation.
	WorkloadsPerOp stats.Summary
	// SetSizes histograms the candidate-set sizes the level's operations
	// produce, including the leaf update the engine only counts.
	SetSizes stats.Histogram
}

// Profile is the full parallelism profile of (graph, plan).
type Profile struct {
	Levels []LevelProfile
	// RootsWalked is the number of search trees included.
	RootsWalked int
	// Embeddings is the count found during the walk (a correctness
	// cross-check when all roots are walked).
	Embeddings uint64
}

// Run profiles the plan on g.
func Run(g *graph.Graph, pl *plan.Plan, cfg Config) *Profile {
	e := mine.NewEngine(g, pl)
	p := &Profile{Levels: make([]LevelProfile, pl.K())}
	for i := range p.Levels {
		p.Levels[i].Level = i
	}
	roots := g.NumVertices()
	if cfg.MaxRoots > 0 && roots > cfg.MaxRoots {
		roots = cfg.MaxRoots
	}
	var walk func(n *mine.Node)
	walk = func(n *mine.Node) {
		if n.Level == pl.K()-2 {
			p.Embeddings += e.LeafCount(n)
			return
		}
		cands := e.Candidates(n)
		p.Levels[n.Level].Branching.AddN(len(cands))
		for _, v := range cands {
			child, info := e.Extend(n, v)
			p.record(child.Level, info, cfg)
			walk(child)
		}
	}
	for v := 0; v < roots; v++ {
		root, info := e.Start(uint32(v))
		p.record(0, info, cfg)
		walk(root)
	}
	p.RootsWalked = roots
	return p
}

func (p *Profile) record(level int, info mine.TaskInfo, cfg Config) {
	lp := &p.Levels[level]
	lp.Tasks++
	lp.OpsPerTask.AddN(len(info.Ops))
	for _, op := range info.Ops {
		long := setops.Segment(op.Long, cfg.longSeg())
		short := setops.Segment(op.Short, cfg.shortSeg())
		pairing := setops.Pair(long, short)
		workloads := setops.Balance(pairing, op.Kind, cfg.maxLoad())
		lp.WorkloadsPerOp.AddN(len(workloads))
		res := op.Result
		if res == nil {
			// The engine counts the leaf update instead of building it.
			res = setops.Apply(op.Kind, op.Short, op.Long)
		}
		lp.SetSizes.Add(len(res))
	}
}

// TotalTasks returns the task count over all levels.
func (p *Profile) TotalTasks() int64 {
	var n int64
	for i := range p.Levels {
		n += p.Levels[i].Tasks
	}
	return n
}

// MeanOpsPerTask returns the overall set-level parallelism.
func (p *Profile) MeanOpsPerTask() float64 {
	var sum, n float64
	for i := range p.Levels {
		sum += p.Levels[i].OpsPerTask.Sum()
		n += float64(p.Levels[i].OpsPerTask.Count())
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// MeanWorkloadsPerOp returns the overall segment-level parallelism.
func (p *Profile) MeanWorkloadsPerOp() float64 {
	var sum, n float64
	for i := range p.Levels {
		sum += p.Levels[i].WorkloadsPerOp.Sum()
		n += float64(p.Levels[i].WorkloadsPerOp.Count())
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// MeanBranching returns the overall branch-level parallelism (children
// per interior task).
func (p *Profile) MeanBranching() float64 {
	var sum, n float64
	for i := range p.Levels {
		sum += p.Levels[i].Branching.Sum()
		n += float64(p.Levels[i].Branching.Count())
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// String renders the per-level profile table.
func (p *Profile) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "parallelism profile: %d roots, %d tasks, %d embeddings\n",
		p.RootsWalked, p.TotalTasks(), p.Embeddings)
	fmt.Fprintf(&sb, "%-6s %12s %14s %14s %16s\n",
		"level", "tasks", "branch (mean)", "sets (mean)", "segments (mean)")
	for i := range p.Levels {
		lp := &p.Levels[i]
		if lp.Tasks == 0 && lp.Branching.Count() == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%-6d %12d %14.2f %14.2f %16.2f\n",
			lp.Level, lp.Tasks, lp.Branching.Mean(), lp.OpsPerTask.Mean(), lp.WorkloadsPerOp.Mean())
	}
	fmt.Fprintf(&sb, "overall: branch %.2f × sets %.2f × segments %.2f\n",
		p.MeanBranching(), p.MeanOpsPerTask(), p.MeanWorkloadsPerOp())
	return sb.String()
}
