package accel

import (
	"context"
	"fmt"

	"fingers/internal/graph"
	"fingers/internal/mem"
	"fingers/internal/noc"
	"fingers/internal/plan"
	"fingers/internal/telemetry"
)

// Chip assembles a multi-PE accelerator over one shared memory hierarchy
// (Figure 5): a root scheduler handing search trees to the PEs, and each
// PE on its own NoC port into the shared cache and DRAM. FINGERS and the
// FlexMiner baseline (with its set-centric SISA variant) run on the same
// chip; only the PEs' Step differs.
type Chip struct {
	PEs  []PE
	Hier *mem.Hierarchy

	ports    []*noc.Port
	sched    *RootScheduler
	makespan mem.Cycles
}

// NewChip builds a chip of numPEs PEs mining plans over g;
// sharedCacheBytes = 0 keeps the paper's 4 MB default, and newPE builds
// each PE around the state the chip made for it (each PE model's
// Config.NewPE method value is one). A nil sched hands out every root
// in ID order; a custom one serves root-ordering studies (§6.3) and the
// root slices of a sharded run. A non-positive PE count, a nil graph, an
// empty plan list, or a nil or invalid plan (plan.Validate) is reported
// as an error.
func NewChip(numPEs int, sharedCacheBytes int64, g *graph.Graph, plans []*plan.Plan, sched *RootScheduler, newPE func(PEState) PE) (*Chip, error) {
	if numPEs < 1 {
		return nil, fmt.Errorf("accel: NewChip: number of PEs must be >= 1, got %d", numPEs)
	}
	if g == nil {
		return nil, fmt.Errorf("accel: NewChip: graph is nil")
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("accel: NewChip: no plans given")
	}
	for i, pl := range plans {
		if err := pl.Validate(); err != nil {
			return nil, fmt.Errorf("accel: NewChip: plan %d: %w", i, err)
		}
	}
	if sched == nil {
		sched = NewRootScheduler(g.NumVertices())
	}
	hier := mem.NewHierarchy(sharedCacheBytes)
	c := &Chip{Hier: hier, sched: sched}
	net := noc.New(noc.DefaultConfig(), numPEs)
	for i := 0; i < numPEs; i++ {
		port := noc.NewPort(net, i, hier.Shared)
		c.PEs = append(c.PEs, newPE(NewPEState(i, g, plans, sched, port)))
		c.ports = append(c.ports, port)
	}
	return c, nil
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
		pe.State().Trc = t
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
// CancelCheckQuantum scheduling quanta and returns the partial Result
// assembled from everything simulated so far (cycles reached, counts,
// cache/DRAM state, per-PE breakdowns) alongside a *simerr.SimError
// wrapping ctx.Err(). A panic inside a PE step returns the same way
// instead of crashing.
func (c *Chip) Run(ctx context.Context, every int64, fn func(Progress)) (Result, error) {
	makespan, err := Run(ctx, c.PEs, every, fn)
	return c.assemble(makespan), err
}

// assemble rolls the per-PE outcomes of a completed run into a Result.
func (c *Chip) assemble(makespan mem.Cycles) Result {
	c.makespan = makespan
	res := Result{
		Cycles:      makespan,
		SharedCache: c.Hier.Shared.Stats(),
		DRAM:        c.Hier.DRAM.Stats(),
	}
	for _, pe := range c.PEs {
		st := pe.State()
		res.Count += st.Found
		res.Tasks += st.Tasks
		res.PEBusy += st.Now
		bd := st.BD
		bd.Idle = makespan - st.Now
		res.Breakdown.Accumulate(bd)
	}
	return res
}

// PERecords returns each PE's telemetry record for the completed run:
// cycle attribution (summing to the makespan), finishing time and work
// counters, with task groups for PEs that form them (zero, and left out
// of the JSON, for the others). Call after Run.
func (c *Chip) PERecords() []telemetry.PERecord {
	out := make([]telemetry.PERecord, len(c.PEs))
	for i, pe := range c.PEs {
		st := pe.State()
		bd := st.BD
		bd.Idle = c.makespan - st.Now
		out[i] = telemetry.PERecord{
			PE:         i,
			Cycles:     c.makespan,
			FinishedAt: st.Now,
			Breakdown:  bd,
			Tasks:      st.Tasks,
			Groups:     st.Groups,
			Count:      st.Found,
		}
	}
	return out
}
