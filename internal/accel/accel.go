// Package accel provides what the FlexMiner baseline and the FINGERS
// accelerator models share: the Chip itself, the PE state both models
// embed (clock, counters, root dispatch and one search-tree frame
// stack), a global root-vertex scheduler (the coarse-grained, tree-level
// parallelism of §3.1), an event-ordered multi-PE execution loop over
// the shared memory system, and the result/statistics types the
// experiment harness consumes.
package accel

import (
	"context"
	"fmt"

	"fingers/internal/mem"
	"fingers/internal/simerr"
	"fingers/internal/telemetry"
)

// RootScheduler hands out search-tree root vertices to PEs — the paper's
// global scheduler that "assigns individual search trees rooted at
// different vertices to separate PEs" (§4). The default hands out vertex
// IDs in sequence, which places adjacent-ID roots on different PEs at the
// same time — the locality-friendly policy §6.3 suggests; a custom order
// enables load-balance and locality ablations.
// The zero value (and, defensively, a nil *RootScheduler) is an empty,
// exhausted scheduler: Next reports ok=false, Total and Remaining report
// zero. Callers holding an optional scheduler can therefore query it
// without a nil check of their own.
type RootScheduler struct {
	next  int
	n     int
	base  int
	order []uint32
}

// NewRootScheduler schedules roots 0..n-1 in ID order.
func NewRootScheduler(n int) *RootScheduler { return &RootScheduler{n: n} }

// NewRootSchedulerRange schedules roots lo..hi-1 in ID order — the
// contiguous root slice one shard of a partitioned run owns. A range
// with hi <= lo is empty.
func NewRootSchedulerRange(lo, hi int) *RootScheduler {
	if hi < lo {
		hi = lo
	}
	return &RootScheduler{n: hi - lo, base: lo}
}

// Total returns the number of roots the scheduler was built with; zero
// for a nil or zero-value scheduler.
func (r *RootScheduler) Total() int {
	if r == nil {
		return 0
	}
	return r.n
}

// NewRootSchedulerWithOrder schedules the given roots in the given order.
func NewRootSchedulerWithOrder(order []uint32) *RootScheduler {
	return &RootScheduler{n: len(order), order: order}
}

// Next returns the next root, or ok=false when the graph is exhausted.
// A nil or zero-value scheduler is exhausted from the start.
func (r *RootScheduler) Next() (v uint32, ok bool) {
	if r == nil || r.next >= r.n {
		return 0, false
	}
	if r.order != nil {
		v = r.order[r.next]
	} else {
		v = uint32(r.base + r.next)
	}
	r.next++
	return v, true
}

// Remaining returns the number of unassigned roots; zero for a nil or
// zero-value scheduler.
func (r *RootScheduler) Remaining() int {
	if r == nil {
		return 0
	}
	return r.n - r.next
}

// MemPort is a PE's view of the shared memory system: the shared cache,
// reached through the NoC. *mem.Cache satisfies it directly (zero NoC
// latency); noc.Port adds the mesh round trip.
type MemPort interface {
	// Access reads [addr, addr+bytes) at time now, returning completion.
	Access(now mem.Cycles, addr, bytes int64) mem.Cycles
	// Probe reports whether the range is resident, without side effects.
	Probe(addr, bytes int64) bool
}

// peEntry is one scheduled PE with its state, its chip index and a
// cached copy of its local clock. A PE's clock changes only inside its
// own Step, so Run refreshes t right after each step.
type peEntry struct {
	pe PE
	st *PEState
	id int
	t  mem.Cycles
}

// before is the schedule's total (cycle, PE-id) order: PEs run in local
// time order so shared-resource accesses interleave in approximately
// global time order, and ties break by PE index so runs are
// deterministic.
func (e *peEntry) before(o *peEntry) bool {
	return e.t < o.t || (e.t == o.t && e.id < o.id)
}

// peHeap is a binary min-heap of PEs in before order.
type peHeap []peEntry

// down sifts entry i down until no child precedes it: it restores heap
// order after entry i's clock grew or a new entry replaced it.
func (h peHeap) down(i int) {
	x := h[i]
	for {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		m := l
		if r := l + 1; r < len(h) && h[r].before(&h[l]) {
			m = r
		}
		if !h[m].before(&x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

// Result summarizes one simulated run.
type Result struct {
	// Cycles is the makespan: the largest finishing time over all PEs.
	Cycles mem.Cycles
	// Count is the total embeddings found (symmetry-broken).
	Count uint64
	// SharedCache reports shared-cache hit/miss statistics.
	SharedCache mem.CacheStats
	// DRAM reports off-chip traffic.
	DRAM mem.DRAMStats
	// PEBusy sums per-PE busy (non-idle) cycles, for utilization studies.
	PEBusy mem.Cycles
	// Tasks counts the extension tasks executed across all PEs.
	Tasks int64
	// Breakdown attributes the chip's PE-cycles (makespan × #PEs) to
	// compute, exposed memory stall, pipeline overhead, and idle — the
	// chip-wide rollup of the per-PE telemetry counters.
	Breakdown telemetry.Breakdown
}

// Speedup returns other.Cycles / r.Cycles: how much faster r is.
func (r Result) Speedup(other Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(other.Cycles) / float64(r.Cycles)
}

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("cycles=%d count=%d tasks=%d missRate=%.1f%%",
		r.Cycles, r.Count, r.Tasks, 100*r.SharedCache.MissRate())
}

// Progress is a snapshot of the event loop handed to Run's progress
// callback.
type Progress struct {
	// Steps is the number of scheduling quanta executed so far.
	Steps int64
	// Now is the frontmost local clock: no shared state precedes it.
	Now mem.Cycles
	// Active is the number of PEs that still have work.
	Active int
}

// CancelCheckQuantum is how many scheduling quanta the serial event loop
// executes between context checks: a cancelled Run returns within this
// many PE steps of the context firing. The value keeps the check off the
// per-step hot path while bounding the cancellation latency to well under
// a millisecond of host time.
const CancelCheckQuantum = 64

// Run drives the PEs in event order until all are idle and returns the
// makespan. Each heap pop selects the PE with the smallest local clock so
// shared cache and DRAM state evolve in near-global order.
//
// Every `every` scheduling quanta Run calls fn with a Progress snapshot
// (every <= 0 or fn == nil disables the callback); the callback must not
// mutate simulation state. The loop checks ctx every CancelCheckQuantum
// quanta, and a fired context stops the run within that bound. The
// returned makespan is then the partially simulated horizon (the largest
// local clock reached) alongside a *simerr.SimError wrapping ctx.Err();
// shared cache, DRAM, and per-PE state remain consistent and inspectable.
// A panic inside a PE step likewise returns as a *SimError attributed to
// the PE, cycle, and root; a panic inside fn propagates to the caller.
func Run(ctx context.Context, pes []PE, every int64, fn func(Progress)) (makespan mem.Cycles, err error) {
	h := make(peHeap, 0, len(pes))
	for i, pe := range pes {
		st := pe.State()
		h = append(h, peEntry{pe: pe, st: st, id: i, t: st.Now})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	// horizon is the partially simulated makespan at an early return: the
	// largest local clock any PE reached, retired or not.
	horizon := func() mem.Cycles {
		out := makespan
		for _, en := range h {
			if t := en.st.Now; t > out {
				out = t
			}
		}
		return out
	}
	// One recover serves the whole run. stepping is set only while the
	// heap root's Step runs, so a PE panic is attributed to that PE, its
	// clock and its root, and any other panic (the progress callback's)
	// propagates untouched.
	stepping := false
	defer func() {
		if stepping {
			if r := recover(); r != nil {
				st := h[0].st
				err = simerr.FromPanic("serial", h[0].id, int64(st.Now), st.rootID(), r)
				makespan = horizon()
			}
		}
	}()
	var steps int64
	for len(h) > 0 {
		if steps%CancelCheckQuantum == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return horizon(), simerr.Cancelled("serial", int64(horizon()), cerr)
			}
		}
		top := &h[0]
		stepping = true
		alive := top.pe.Step()
		stepping = false
		steps++
		if alive {
			top.t = top.st.Now
			h.down(0)
		} else {
			if t := top.st.Now; t > makespan {
				makespan = t
			}
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			if len(h) > 0 {
				h.down(0)
			}
		}
		if every > 0 && fn != nil && steps%every == 0 {
			now := makespan
			if len(h) > 0 {
				now = h[0].t
			}
			fn(Progress{Steps: steps, Now: now, Active: len(h)})
		}
	}
	return makespan, nil
}
