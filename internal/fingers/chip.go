package fingers

import (
	"context"
	"fmt"

	"fingers/internal/accel"
	"fingers/internal/graph"
	"fingers/internal/mem"
	"fingers/internal/noc"
	"fingers/internal/plan"
	"fingers/internal/telemetry"
)

// Chip assembles a multi-PE FINGERS accelerator over one shared memory
// hierarchy (Figure 5).
type Chip struct {
	PEs  []*PE
	Hier *mem.Hierarchy

	ports    []*noc.Port
	sched    *accel.RootScheduler
	makespan mem.Cycles
}

// NewChipErr builds a FINGERS chip with numPEs PEs mining the given
// plans; sharedCacheBytes = 0 keeps the paper's 4 MB default. A
// non-positive PE count, a nil graph, an empty or nil-holding plan list,
// or a plan failing plan.Validate is reported as an error. This is the
// constructor the Simulate façade uses.
func NewChipErr(cfg Config, numPEs int, sharedCacheBytes int64, g *graph.Graph, plans []*plan.Plan) (*Chip, error) {
	if err := validateChipArgs("fingers", numPEs, g, plans); err != nil {
		return nil, err
	}
	return NewChipWithScheduler(cfg, numPEs, sharedCacheBytes, g, plans, nil), nil
}

// validateChipArgs checks the chip-construction arguments shared by both
// accelerator models.
func validateChipArgs(model string, numPEs int, g *graph.Graph, plans []*plan.Plan) error {
	if numPEs < 1 {
		return fmt.Errorf("%s: NewChip: number of PEs must be >= 1, got %d", model, numPEs)
	}
	if g == nil {
		return fmt.Errorf("%s: NewChip: graph is nil", model)
	}
	if len(plans) == 0 {
		return fmt.Errorf("%s: NewChip: no plans given", model)
	}
	for i, pl := range plans {
		if err := pl.Validate(); err != nil {
			return fmt.Errorf("%s: NewChip: plan %d: %w", model, i, err)
		}
	}
	return nil
}

// NewChipWithScheduler builds the chip with a custom root scheduler, for
// root-ordering studies (locality and load-balance policies, §6.3); a
// nil scheduler gets the default ID-order handout. Degenerate
// configurations fail fast with a panic: numPEs must be positive (the
// public Simulate façade and NewChipErr report the same condition as an
// error).
func NewChipWithScheduler(cfg Config, numPEs int, sharedCacheBytes int64, g *graph.Graph, plans []*plan.Plan, sched *accel.RootScheduler) *Chip {
	if numPEs < 1 {
		panic(fmt.Sprintf("fingers: NewChip: number of PEs must be >= 1, got %d", numPEs))
	}
	if sched == nil {
		sched = accel.NewRootScheduler(g.NumVertices())
	}
	hier := mem.NewHierarchy(sharedCacheBytes)
	c := &Chip{Hier: hier, sched: sched}
	net := noc.New(noc.DefaultConfig(), numPEs)
	for i := 0; i < numPEs; i++ {
		port := noc.NewPort(net, i, hier.Shared)
		pe := NewPE(cfg, g, plans, sched, port)
		pe.id = i
		c.PEs = append(c.PEs, pe)
		c.ports = append(c.ports, port)
	}
	return c
}

// RootsTotal returns the number of search-tree roots the chip's
// scheduler was built with.
func (c *Chip) RootsTotal() int { return c.sched.Total() }

// RootsDispatched returns the number of roots handed to PEs so far — the
// completed-root progress measure of a partial run.
func (c *Chip) RootsDispatched() int { return c.sched.Total() - c.sched.Remaining() }

// SetTracer attaches an event tracer to every PE, every NoC port, and
// the DRAM model; nil detaches, restoring the zero-overhead path.
func (c *Chip) SetTracer(t telemetry.Tracer) {
	for _, pe := range c.PEs {
		pe.trc = t
	}
	if t == nil {
		for _, p := range c.ports {
			p.Obs = nil
		}
		c.Hier.DRAM.SetObserver(nil)
		return
	}
	for _, p := range c.ports {
		p.Obs = t
	}
	c.Hier.DRAM.SetObserver(t)
}

// Run simulates the chip to completion, invoking fn with a progress
// snapshot every `every` scheduling quanta (every <= 0 or a nil fn
// disables it). A fired context stops the run within
// accel.CancelCheckQuantum scheduling quanta and returns the partial
// Result assembled from everything simulated so far (cycles reached,
// counts, cache/DRAM state, per-PE breakdowns) alongside a
// *simerr.SimError wrapping ctx.Err(). A panic inside a PE step returns
// the same way instead of crashing.
func (c *Chip) Run(ctx context.Context, every int64, fn func(accel.Progress)) (accel.Result, error) {
	pes := make([]accel.PE, len(c.PEs))
	for i, pe := range c.PEs {
		pes[i] = pe
	}
	makespan, err := accel.Run(ctx, pes, every, fn)
	return c.assemble(makespan), err
}

// assemble rolls the per-PE outcomes of a completed run into a Result.
func (c *Chip) assemble(makespan mem.Cycles) accel.Result {
	c.makespan = makespan
	res := accel.Result{
		Cycles:      makespan,
		SharedCache: c.Hier.Shared.Stats(),
		DRAM:        c.Hier.DRAM.Stats(),
	}
	for _, pe := range c.PEs {
		res.Count += pe.Count()
		res.Tasks += pe.Tasks()
		res.PEBusy += pe.Time()
		bd := pe.Breakdown()
		bd.Idle = makespan - pe.Time()
		res.Breakdown.Accumulate(bd)
	}
	return res
}

// AggregateStats merges the IU utilization counters of all PEs.
func (c *Chip) AggregateStats() IUStats {
	var out IUStats
	for _, pe := range c.PEs {
		s := pe.Stats()
		out.BusyIUCycles += s.BusyIUCycles
		out.AssignedIUCycles += s.AssignedIUCycles
		out.TotalCycles += s.TotalCycles
		out.BalanceNum += s.BalanceNum
		out.BalanceDen += s.BalanceDen
		out.NumIUs = s.NumIUs
	}
	return out
}

// PERecords returns each PE's telemetry record for the completed run:
// cycle attribution (summing to the makespan), finishing time and work
// counters. Call after Run.
func (c *Chip) PERecords() []telemetry.PERecord {
	out := make([]telemetry.PERecord, len(c.PEs))
	for i, pe := range c.PEs {
		bd := pe.Breakdown()
		bd.Idle = c.makespan - pe.Time()
		out[i] = telemetry.PERecord{
			PE:         i,
			Cycles:     c.makespan,
			FinishedAt: pe.Time(),
			Breakdown:  bd,
			Tasks:      pe.Tasks(),
			Groups:     pe.Groups(),
			Count:      pe.Count(),
		}
	}
	return out
}
