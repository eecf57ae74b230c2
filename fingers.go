// Package fingers is a library-and-simulator reproduction of "FINGERS:
// Exploiting Fine-Grained Parallelism in Graph Mining Accelerators"
// (Chen, Tian, Gao — ASPLOS 2022).
//
// It bundles a pattern-aware graph mining stack — CSR graphs, pattern
// compilation into execution plans with symmetry breaking, and an exact
// software miner — with transaction-level timing models of the FINGERS
// accelerator and its FlexMiner baseline, plus the experiment harness
// that regenerates every table and figure of the paper's evaluation.
//
// This root package is the public façade: it re-exports the types and
// entry points downstream users need, so one import suffices:
//
//	g, _ := fingers.LoadGraph("soc.txt")
//	pat, _ := fingers.PatternByName("tt")
//	pl, _ := fingers.CompilePlan(pat, fingers.PlanOptions{})
//	n := fingers.CountParallel(g, pl, 0)              // software mining
//	res, _ := fingers.Simulate(fingers.ArchFingers, g, []*fingers.Plan{pl}, fingers.WithPEs(20))
//	fmt.Println(n, res.Result.Cycles)
//
// The building blocks live in internal packages (graph, pattern, plan,
// mine, setops, mem, accel, fingers, flexminer, area, datasets, exp) and
// are documented individually.
package fingers

import (
	"context"

	"fingers/internal/accel"
	"fingers/internal/area"
	"fingers/internal/datasets"
	fingerspe "fingers/internal/fingers"
	"fingers/internal/graph"
	"fingers/internal/graph/gen"
	"fingers/internal/mem"
	"fingers/internal/mine"
	"fingers/internal/pattern"
	"fingers/internal/plan"
	"fingers/internal/simerr"
	"fingers/internal/telemetry"
)

// SimError is the structured failure of a simulation or mining run: it
// names the engine ("serial", "miner", "facade"), the PE or
// worker, the simulated cycle, and the root vertex being mined, and
// wraps the underlying cause — a recovered panic (with the goroutine
// stack) or the context error of a cancelled run — so errors.Is(err,
// context.Canceled) keeps working through it. Simulate and CountCtx
// return a *SimError for every cancellation, deadline expiry, and
// recovered panic.
type SimError = simerr.SimError

// AsSimError extracts a *SimError from an error chain; ok is false when
// the error did not originate inside a simulation engine.
func AsSimError(err error) (*SimError, bool) { return simerr.As(err) }

// ErrMalformedGraph is the sentinel every graph-ingest format or
// invariant violation wraps: LoadGraph reports bad magic, truncated or
// corrupt binary payloads, and unparseable edge lists as errors
// satisfying errors.Is(err, ErrMalformedGraph), distinguishing bad
// input from genuine I/O failure.
var ErrMalformedGraph = graph.ErrMalformed

// ErrInvalidPlan is the sentinel wrapped by every plan-validation
// failure: Simulate and the chip constructors reject structurally
// unsound execution plans with errors satisfying errors.Is(err,
// ErrInvalidPlan).
var ErrInvalidPlan = plan.ErrInvalid

// Graph is an immutable undirected CSR graph with sorted neighbor lists.
type Graph = graph.Graph

// GraphBuilder accumulates edges and produces a normalized Graph.
type GraphBuilder = graph.Builder

// Edge is an undirected edge between two vertex IDs.
type Edge = graph.Edge

// GraphStats summarizes a graph as in the paper's Table 1.
type GraphStats = graph.Stats

// Pattern is a small query graph whose embeddings are mined.
type Pattern = pattern.Pattern

// Plan is a compiled execution plan: vertex order, set-operation schedule
// and symmetry-breaking restrictions.
type Plan = plan.Plan

// MultiPlan mines several patterns together, one trunk per plan from
// each root.
type MultiPlan = plan.MultiPlan

// PlanOptions configures plan compilation.
type PlanOptions = plan.Options

// SimResult is the outcome of one accelerator simulation.
type SimResult = accel.Result

// AcceleratorConfig parameterizes a FINGERS processing element.
type AcceleratorConfig = fingerspe.Config

// IUStats reports intersect-unit utilization (the paper's Table 3 rates).
type IUStats = fingerspe.IUStats

// CycleBreakdown attributes simulated cycles to compute, exposed memory
// stall, pipeline overhead, and idle; SimResult carries the chip-wide
// rollup and SimReport.PerPE the PE-level detail (WithTracer, WithStats).
type CycleBreakdown = telemetry.Breakdown

// Cycles counts simulated accelerator clock cycles — the unit every
// Tracer event and SimResult timing field is expressed in.
type Cycles = mem.Cycles

// Tracer receives fine-grained simulation events (task groups, set-op
// issues, cache accesses, DRAM bursts); nil disables tracing with zero
// overhead.
type Tracer = telemetry.Tracer

// ChromeTrace is a Tracer that renders a Chrome trace_event JSON file,
// viewable in Perfetto (one track per PE).
type ChromeTrace = telemetry.Chrome

// RunRecord is the machine-readable JSONL summary of one simulated run.
type RunRecord = telemetry.RunRecord

// PECycleRecord is one PE's telemetry slice of a simulated run.
type PECycleRecord = telemetry.PERecord

// NewChromeTrace returns an empty Chrome trace collector.
func NewChromeTrace() *ChromeTrace { return telemetry.NewChrome() }

// Dataset is one synthetic analogue of the paper's Table 1 graphs.
type Dataset = datasets.Dataset

// NewGraphBuilder returns a builder for a graph with at least n vertices.
func NewGraphBuilder(n uint32) *GraphBuilder { return graph.NewBuilder(n) }

// GraphFromEdges builds a normalized graph from an edge list.
func GraphFromEdges(n uint32, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// LoadGraph reads a graph from a file: ".bin" paths use the binary CSR
// format, anything else is parsed as a SNAP-style text edge list.
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// SaveGraph writes a graph to a file in the format LoadGraph expects.
func SaveGraph(path string, g *Graph) error { return graph.SaveFile(path, g) }

// Stats computes the Table 1 statistics of a graph.
func Stats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// NewPattern builds a pattern with n vertices and the given edges.
func NewPattern(n int, edges [][2]int) Pattern { return pattern.New(n, edges) }

// PatternByName returns a named benchmark pattern (tc, 4cl, 5cl, tt, cyc,
// dia, wedge, house, …).
func PatternByName(name string) (Pattern, error) { return pattern.ByName(name) }

// PatternNames lists the available named patterns.
func PatternNames() []string { return pattern.Names() }

// CompilePlan compiles a pattern into an execution plan.
func CompilePlan(p Pattern, opts PlanOptions) (*Plan, error) { return plan.Compile(p, opts) }

// CompileMotif compiles the k-motif multi-pattern plan (every connected
// pattern on k vertices).
func CompileMotif(k int, opts PlanOptions) (*MultiPlan, error) { return plan.Motif(k, opts) }

// Count mines the plan on g with the adaptive software miner
// (mine.Counter) and returns the number of embeddings (each automorphism
// class counted once). The result is bit-identical to the reference
// miner, mine.CountOracle.
func Count(g *Graph, pl *Plan) uint64 { return mine.Count(g, pl) }

// CountParallel is Count parallelized over root vertices; workers ≤ 0
// uses GOMAXPROCS.
func CountParallel(g *Graph, pl *Plan, workers int) uint64 {
	return mine.CountParallel(g, pl, workers)
}

// CountMotifs mines every plan of a multi-pattern plan, returning counts
// in plan order.
func CountMotifs(g *Graph, mp *MultiPlan) []uint64 { return mine.CountMulti(g, mp) }

// CountMotifsCtx is CountMotifs with cancellation and panic recovery,
// parallelized over root vertices within each pattern (workers ≤ 0 uses
// GOMAXPROCS). On a failure it returns the per-pattern counts completed
// so far alongside a *SimError.
func CountMotifsCtx(ctx context.Context, g *Graph, mp *MultiPlan, workers int) ([]uint64, error) {
	return mine.CountMultiCtx(ctx, g, mp, workers)
}

// ListEmbeddings enumerates embeddings, invoking visit with the mapped
// vertices (slice reused across calls); returning false stops early.
func ListEmbeddings(g *Graph, pl *Plan, visit func(emb []uint32) bool) {
	mine.List(g, pl, visit)
}

// DefaultAcceleratorConfig returns the paper's FINGERS PE configuration:
// 24 IUs, 12 task dividers, 16/4 segment lengths, 32 kB private cache.
func DefaultAcceleratorConfig() AcceleratorConfig { return fingerspe.DefaultConfig() }

// IsoAreaPEs returns the FINGERS PE count that fits the area budget of
// flexPEs FlexMiner PEs (the paper compares 20 vs 40).
func IsoAreaPEs(cfg AcceleratorConfig, flexPEs int) int {
	return area.IsoAreaPECount(cfg, flexPEs)
}

// GeneratePowerLawCluster generates a deterministic power-law clustered
// graph (Holme–Kim): preferential attachment with probability triadP of
// closing a triangle on each extra link. This is the generator behind the
// social-network dataset analogues.
func GeneratePowerLawCluster(n uint32, edgesPerVertex int, triadP float64, seed int64) *Graph {
	return gen.PowerLawCluster(n, edgesPerVertex, triadP, seed)
}

// GenerateErdosRenyi generates a deterministic G(n, m) random graph.
func GenerateErdosRenyi(n uint32, m int, seed int64) *Graph {
	return gen.ErdosRenyi(n, m, seed)
}

// DatasetNames lists the Table 1 dataset mnemonics (As, Mi, Yo, Pa, Lj, Or).
func DatasetNames() []string { return datasets.Names() }

// DatasetByName returns the synthetic analogue of a Table 1 dataset.
func DatasetByName(name string) (*Dataset, error) { return datasets.ByName(name) }
