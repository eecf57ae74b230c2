package fingers

import (
	"context"
	"fmt"
	"time"

	"fingers/internal/accel"
	fingerspe "fingers/internal/fingers"
	"fingers/internal/mine"
	"fingers/internal/simerr"
)

// Arch selects which accelerator timing model Simulate runs.
type Arch int

const (
	// ArchFingers is the FINGERS design: FlexMiner's PE organization
	// augmented with the paper's three fine-grained parallelism
	// mechanisms (segmented set units, task dividers, pseudo-DFS).
	ArchFingers Arch = iota
	// ArchFlexMiner is the FlexMiner baseline the paper compares against.
	ArchFlexMiner
	// ArchSISA is the FlexMiner baseline with a SISA-style set-centric
	// cost model: neighbor lists travel in the representation the
	// graph's hybrid view classifies them into (dense row / compressed
	// bitmap / array), and set operations against a dense or bitmap
	// list cost one probe per short-side element. Counts are identical to
	// the other architectures; only timing and traffic differ.
	ArchSISA
)

// String returns the architecture's display name.
func (a Arch) String() string {
	switch a {
	case ArchFingers:
		return "FINGERS"
	case ArchFlexMiner:
		return "FlexMiner"
	case ArchSISA:
		return "SISA"
	}
	return fmt.Sprintf("Arch(%d)", int(a))
}

// simConfig collects the functional options of one Simulate call.
type simConfig struct {
	pes           int
	cacheBytes    int64
	tracer        Tracer
	stats         bool
	fiCfg         AcceleratorConfig
	shards        int
	ctx           context.Context
	timeout       time.Duration
	progressEvery int64
	progressFn    func(SimProgress)
}

// SimOption configures a Simulate call; the constructors below are the
// full set.
type SimOption func(*simConfig)

// WithPEs sets the number of processing elements (default 1).
func WithPEs(n int) SimOption { return func(c *simConfig) { c.pes = n } }

// WithSharedCache sets the shared-cache capacity in bytes; zero (the
// default) keeps the model's 4 MB.
func WithSharedCache(bytes int64) SimOption { return func(c *simConfig) { c.cacheBytes = bytes } }

// WithTracer attaches an event tracer (nil is allowed and costs nothing)
// and fills the report's PerPE cycle records.
func WithTracer(tr Tracer) SimOption { return func(c *simConfig) { c.tracer = tr } }

// WithStats fills the report's PerPE cycle records and, on ArchFingers,
// the IU utilization rates of the paper's Table 3.
func WithStats() SimOption { return func(c *simConfig) { c.stats = true } }

// WithAcceleratorConfig overrides the FINGERS PE configuration (ignored
// by ArchFlexMiner).
func WithAcceleratorConfig(cfg AcceleratorConfig) SimOption {
	return func(c *simConfig) { c.fiCfg = cfg }
}

// WithContext makes the run cancellable: when ctx fires, the simulation
// stops within one cancellation quantum (accel.CancelCheckQuantum
// scheduling steps) and Simulate returns the partial report — cycles
// reached, per-PE progress, dispatched-root counts, Partial set —
// alongside a *SimError wrapping ctx.Err(). A nil ctx is ignored.
func WithContext(ctx context.Context) SimOption {
	return func(c *simConfig) { c.ctx = ctx }
}

// SimProgress is a live snapshot of a running simulation handed to the
// WithProgress callback: scheduling steps executed, the frontmost
// simulated clock, and the number of PEs still active.
type SimProgress = accel.Progress

// WithProgress invokes fn from the simulation loop every `every`
// scheduler steps, for live status lines and streaming observers. The callback runs on
// the simulation goroutine: keep it cheap and do not retain the
// snapshot. every <= 0 or a nil fn disables reporting.
func WithProgress(every int64, fn func(SimProgress)) SimOption {
	return func(c *simConfig) {
		c.progressEvery = every
		c.progressFn = fn
	}
}

// WithTimeout bounds the run to the given wall-clock duration, as
// WithContext with a timeout context (the two compose: whichever fires
// first stops the run). A zero duration means no timeout; a negative
// one expires immediately, as with context.WithTimeout.
func WithTimeout(d time.Duration) SimOption {
	return func(c *simConfig) { c.timeout = d }
}

// SimReport is the outcome of one Simulate call. Result is always
// filled; the telemetry fields are populated on request (WithTracer,
// WithStats) because assembling them is not free on large chips.
type SimReport struct {
	// Result is the simulation outcome: cycles, exact embedding count,
	// cache and DRAM statistics, and the chip-wide cycle breakdown. On a
	// partial run Result.Cycles is the horizon — the largest simulated
	// cycle reached — and the counts cover everything mined so far.
	Result SimResult
	// Partial reports that the run stopped early — cancellation,
	// deadline expiry, or a recovered panic — so Result covers only the
	// simulated prefix. Simulate returns a non-nil *SimError whenever
	// Partial is set.
	Partial bool
	// RootsDone is the number of search-tree roots dispatched to PEs;
	// with RootsTotal it quantifies how far a partial run progressed.
	RootsDone int
	// RootsTotal is the total number of search-tree roots in the run.
	RootsTotal int
	// PerPE holds each PE's cycle attribution (buckets sum to the
	// makespan); nil unless WithTracer or WithStats was given or the run
	// ended partial (per-PE progress is part of the partial report).
	PerPE []PECycleRecord
	// IU holds the intersect-unit active/balance rates; the zero value
	// unless WithStats was given on ArchFingers.
	IU IUStats
	// Shards is the effective shard count the run was partitioned into
	// after clamping (1 for unsharded runs). See WithShards.
	Shards int
	// ShardWallNS records each shard's host wall-clock time in
	// nanoseconds, in shard order; nil on unsharded runs. The spread is
	// the sharded mode's load-balance signal.
	ShardWallNS []int64
}

// Simulate runs one accelerator timing model over the graph and plans
// and returns its report:
//
//	res, err := fingers.Simulate(fingers.ArchFingers, g, plans,
//	        fingers.WithPEs(20), fingers.WithStats())
//	fmt.Println(res.Result.Cycles, res.IU.ActiveRate())
//
// Defaults: 1 PE, the model's shared cache, no tracer, one shard, and the
// paper's default PE configuration for the chosen architecture.
// Degenerate configurations (an unknown architecture, a non-positive PE
// count, a negative shard count, a nil graph, no plans, an invalid plan)
// are reported as errors.
//
// With WithContext or WithTimeout the run is
// interruptible: on cancellation Simulate returns the partial report
// (Partial set, Result covering the simulated prefix, per-PE progress,
// root counts) and a *SimError wrapping the context error. A panic
// anywhere inside the simulation surfaces the same way — as a *SimError
// attributing the engine, PE, cycle, and root — never as a crash.
func Simulate(arch Arch, g *Graph, plans []*Plan, opts ...SimOption) (rep SimReport, err error) {
	cfg := simConfig{
		pes:   1,
		fiCfg: fingerspe.DefaultConfig(),
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if g == nil {
		return rep, fmt.Errorf("fingers: Simulate: graph is nil")
	}
	if len(plans) == 0 {
		return rep, fmt.Errorf("fingers: Simulate: no plans given")
	}
	if cfg.pes < 1 {
		return rep, fmt.Errorf("fingers: Simulate: number of PEs must be >= 1, got %d", cfg.pes)
	}
	if cfg.shards < 0 {
		return rep, fmt.Errorf("fingers: Simulate: number of shards must be >= 0, got %d", cfg.shards)
	}
	ctx := cfg.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.timeout != 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	// The engines recover panics inside PE steps; this guard catches the
	// remainder (chip construction, telemetry assembly) so the façade
	// never crashes the host over a simulation defect.
	defer func() {
		if r := recover(); r != nil {
			rep.Partial = true
			err = simerr.FromPanic("facade", simerr.NoPE, 0, simerr.NoRoot, r)
		}
	}()

	// Unsharded is one shard; every shard keeps at least one PE.
	return runSharded(ctx, arch, g, plans, cfg, min(max(cfg.shards, 1), cfg.pes))
}

// CountCtx is CountParallel with cancellation and panic recovery: the
// root scheduler checks ctx between chunks and returns the partial count
// alongside a *SimError wrapping ctx.Err() when it fires; a panic inside
// a mining worker returns the same way. A nil error means the count is
// complete.
func CountCtx(ctx context.Context, g *Graph, pl *Plan, workers int) (uint64, error) {
	return mine.CountCtx(ctx, g, pl, workers)
}
