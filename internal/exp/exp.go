// Package exp regenerates every table and figure of the paper's
// evaluation (§6) on the synthetic dataset analogues: Table 1 (datasets),
// Table 2 (area), Figure 9 (single-PE speedup), Figure 10 (iso-area chip
// speedup), Figure 11 (branch-level parallelism ablation), Figure 12 (IU
// scaling), Figure 13 (shared-cache miss curves) and Table 3 (IU
// utilization). Each experiment returns a structured result and renders a
// text table; absolute magnitudes differ from the paper (re-built
// simulator, scaled graphs) but the comparative shape is the deliverable.
package exp

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fingers"
	"fingers/internal/accel"
	"fingers/internal/datasets"
	"fingers/internal/plan"
	"fingers/internal/telemetry"
)

// Benchmarks is the paper's pattern list (§5): cliques of size 3–5,
// tailed triangle, 4-cycle, diamond, and the 3-motif multi-pattern task.
var Benchmarks = []string{"tc", "4cl", "5cl", "tt", "cyc", "dia", "3mc"}

// Options configures an experiment run.
type Options struct {
	// Quick restricts graphs and patterns to a fast subset for smoke
	// tests; full runs reproduce the paper's whole grid.
	Quick bool
	// FlexPEs and FingersPEs set the chip sizes for Figure 10; zero keeps
	// the paper's iso-area 40 vs 20.
	FlexPEs, FingersPEs int
	// SharedCacheBytes overrides the scaled default shared cache.
	SharedCacheBytes int64
	// Log, when non-nil, receives one telemetry.RunRecord per simulated
	// chip run (one JSONL line per experiment cell and architecture).
	Log *telemetry.RunLog
	// Workers bounds the worker pool the experiments fan their
	// independent (dataset, pattern, arch) cells across; zero or negative
	// uses GOMAXPROCS. The simulated chips themselves stay
	// single-threaded — parallelism is across cells only, so cycle
	// results are identical to a serial run.
	Workers int
	// Ctx, when non-nil, cancels a sweep early: in-flight cells finish,
	// remaining cells are skipped and left out of the result. Nil means
	// run to completion.
	Ctx context.Context
}

func (o Options) flexPEs() int {
	if o.FlexPEs > 0 {
		return o.FlexPEs
	}
	return 40
}

func (o Options) fingersPEs() int {
	if o.FingersPEs > 0 {
		return o.FingersPEs
	}
	return 20
}

func (o Options) cacheBytes() int64 {
	if o.SharedCacheBytes > 0 {
		return o.SharedCacheBytes
	}
	return datasets.ScaledSharedCacheBytes
}

func (o Options) graphs() []*datasets.Dataset {
	if o.Quick {
		return datasets.Small()
	}
	return datasets.All()
}

func (o Options) patterns() []string {
	if o.Quick {
		return []string{"tc", "tt", "cyc"}
	}
	return Benchmarks
}

// simulate runs one experiment cell through fingers.Simulate on the
// sweep's context and, when a run log is attached, appends the cell's
// record under the experiment's name. cfg shapes FINGERS PEs; the other
// architectures ignore it. The report always carries the stats (their
// cost is per PE, not per task): Table 3 reads the IU rates and the run
// log the per-PE rows. A cancelled sweep returns the partial report;
// any other simulation error is a repo defect and panics.
func (o Options) simulate(arch fingers.Arch, experiment string, c gridCell, cfg fingers.AcceleratorConfig, pes int, cacheBytes int64) fingers.SimReport {
	g := c.d.Graph()
	start := time.Now()
	rep, err := fingers.Simulate(arch, g, c.plans,
		fingers.WithAcceleratorConfig(cfg), fingers.WithPEs(pes), fingers.WithSharedCache(cacheBytes),
		fingers.WithContext(o.ctx()), fingers.WithStats())
	wall := time.Since(start)
	if err != nil && o.ctx().Err() == nil {
		panic(fmt.Sprintf("exp: simulation: %v", err))
	}
	if o.Log != nil {
		rec := fingers.NewRunRecord(arch, experiment, fingers.NewGraphInfo(c.d.Name, g), c.pattern, pes, cfg.NumIUs, cacheBytes, rep)
		rec.StartedAt = start.UTC().Format(time.RFC3339Nano)
		rec.WallNS = wall.Nanoseconds()
		if err := o.Log.Write(rec); err != nil {
			// Reported, not fatal: a full sweep is never lost to a bad disk.
			fmt.Fprintln(os.Stderr, "exp: run log:", err)
		}
	}
	return rep
}

// SpeedupCell is one (graph, pattern) comparison; its grid's Cells map
// keys it by pattern and graph.
type SpeedupCell struct {
	Fingers, Flex accel.Result
	Speedup       float64
}

// SpeedupGrid is a patterns × graphs speedup table (Figures 9 and 10).
type SpeedupGrid struct {
	Title    string
	Patterns []string
	Graphs   []string
	Cells    map[string]map[string]SpeedupCell // pattern → graph → cell
}

// Mean returns the geometric-mean speedup over all cells.
func (g *SpeedupGrid) Mean() float64 {
	logSum, n := 0.0, 0
	for _, row := range g.Cells {
		for _, c := range row {
			if c.Speedup > 0 {
				logSum += math.Log(c.Speedup)
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Max returns the largest cell speedup.
func (g *SpeedupGrid) Max() float64 {
	max := 0.0
	for _, row := range g.Cells {
		for _, c := range row {
			if c.Speedup > max {
				max = c.Speedup
			}
		}
	}
	return max
}

// String renders the grid in the layout of the paper's bar charts: one
// row per pattern, one column per graph.
func (g *SpeedupGrid) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", g.Title)
	fmt.Fprintf(&sb, "%-5s", "")
	for _, gr := range g.Graphs {
		fmt.Fprintf(&sb, "%8s", gr)
	}
	sb.WriteString("\n")
	for _, p := range g.Patterns {
		fmt.Fprintf(&sb, "%-5s", p)
		for _, gr := range g.Graphs {
			c, ok := g.Cells[p][gr]
			if !ok {
				fmt.Fprintf(&sb, "%8s", "-")
				continue
			}
			fmt.Fprintf(&sb, "%7.2fx", c.Speedup)
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "geomean %.2fx, max %.2fx\n", g.Mean(), g.Max())
	return sb.String()
}

func newGrid(title string, patterns []string, graphsList []*datasets.Dataset) *SpeedupGrid {
	g := &SpeedupGrid{Title: title, Patterns: patterns, Cells: map[string]map[string]SpeedupCell{}}
	for _, d := range graphsList {
		g.Graphs = append(g.Graphs, d.Name)
	}
	for _, p := range patterns {
		g.Cells[p] = map[string]SpeedupCell{}
	}
	return g
}

func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// runCells evaluates n independent experiment cells on a bounded worker
// pool (Options.Workers wide). Each cell writes only its own slot of a
// preallocated result slice, so the callers need no locking; cancellation
// via Options.Ctx skips cells that have not started. With one worker the
// cells run inline in index order, exactly like the old serial loops.
func (o Options) runCells(n int, cell func(i int)) {
	workers := o.workerCount()
	if workers > n {
		workers = n
	}
	ctx := o.ctx()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			cell(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				cell(i)
			}
		}()
	}
	wg.Wait()
}

// gridCell is one (pattern, graph) coordinate of an experiment, with the
// pattern's plans compiled once up front (outside the worker pool) so the
// compiler runs per pattern, not per cell.
type gridCell struct {
	pattern string
	plans   []*plan.Plan
	d       *datasets.Dataset
}

func gridCells(patterns []string, graphsList []*datasets.Dataset) []gridCell {
	out := make([]gridCell, 0, len(patterns)*len(graphsList))
	for _, name := range patterns {
		plans, err := plan.ForBenchmark(name)
		if err != nil {
			panic(err)
		}
		for _, d := range graphsList {
			out = append(out, gridCell{pattern: name, plans: plans, d: d})
		}
	}
	return out
}

// fillGrid copies the computed cells into the grid map, skipping slots a
// cancelled sweep never reached.
func fillGrid(grid *SpeedupGrid, cells []gridCell, out []SpeedupCell, done []bool) {
	for i, c := range cells {
		if done[i] {
			grid.Cells[c.pattern][c.d.Name] = out[i]
		}
	}
}
