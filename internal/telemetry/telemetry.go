// Package telemetry is the simulator's instrumentation layer: per-PE
// cycle attribution (where did the makespan go — compute, exposed memory
// stalls, divider/collector overhead, or end-of-run idle), an optional
// event tracer threaded through the PE models and the memory system, and
// two exporters — Chrome trace_event JSON (one track per PE, viewable in
// Perfetto) and append-only JSONL run records for downstream tooling.
//
// The layer is zero-overhead when disabled: attribution counters are
// plain integer adds on paths that already execute, and every tracing
// hook is guarded by a nil check, so a simulation without a tracer
// attached produces bit-identical cycle counts to one compiled without
// telemetry at all.
package telemetry

import (
	"fmt"

	"fingers/internal/mem"
)

// Breakdown attributes one PE's share of the chip makespan to four
// exclusive buckets. The invariant maintained by the PE models is
//
//	Compute + MemStall + Overhead == the PE's local finishing time
//
// and the chip rollup sets Idle to makespan − finishing time, so the
// four buckets always sum to the makespan (Total).
type Breakdown struct {
	// Compute is time the IU array (or the baseline's merge unit) was the
	// task pipeline's bottleneck stage.
	Compute mem.Cycles `json:"compute"`
	// MemStall is exposed memory latency: fetch time not hidden behind
	// computation (the quantity pseudo-DFS grouping attacks, §4.1).
	MemStall mem.Cycles `json:"mem_stall"`
	// Overhead is divider, result-collection and fixed task-scheduling
	// time that exceeded the compute stage (§4.2, §4.3).
	Overhead mem.Cycles `json:"overhead"`
	// Idle is time after the PE ran out of roots while slower PEs kept
	// the chip busy (tree-level load imbalance, §6.3).
	Idle mem.Cycles `json:"idle"`
}

// Total returns the sum of all four buckets — the chip makespan once the
// rollup has filled Idle.
func (b Breakdown) Total() mem.Cycles {
	return b.Compute + b.MemStall + b.Overhead + b.Idle
}

// Accumulate adds o's buckets into b, for chip-wide rollups.
func (b *Breakdown) Accumulate(o Breakdown) {
	b.Compute += o.Compute
	b.MemStall += o.MemStall
	b.Overhead += o.Overhead
	b.Idle += o.Idle
}

// String renders the buckets as percentages of the total.
func (b Breakdown) String() string {
	t := b.Total()
	if t == 0 {
		return "compute 0% stall 0% overhead 0% idle 0%"
	}
	pct := func(c mem.Cycles) float64 { return 100 * float64(c) / float64(t) }
	return fmt.Sprintf("compute %.1f%% stall %.1f%% overhead %.1f%% idle %.1f%%",
		pct(b.Compute), pct(b.MemStall), pct(b.Overhead), pct(b.Idle))
}

// Tracer receives the simulator's fine-grained events. Implementations
// must not advance any clocks: tracing is observational only, and the
// PE models call it with the same timestamps whether or not it is
// attached. A nil Tracer disables all hooks.
type Tracer interface {
	// TaskGroupBegin marks PE pe starting a pseudo-DFS task group of the
	// given size at cycle at; engine is the plan index (-1 for the
	// root-start group spanning all engines).
	TaskGroupBegin(pe, engine int, at mem.Cycles, size int)
	// TaskGroupEnd marks the group's last task completing at cycle at.
	TaskGroupEnd(pe int, at mem.Cycles)
	// SetOpIssue reports one distinct set operation entering the compute
	// stage: its kind ("intersect", "subtract", "anti-subtract"), input
	// lengths, and the number of IU workloads it was divided into.
	SetOpIssue(pe int, at mem.Cycles, kind string, longLen, shortLen, workloads int)
	// CacheAccess reports one shared-cache access by PE pe covering
	// bytes, touching lines cache lines of which misses missed, issued at
	// cycle at and completing at done (including NoC traversal).
	CacheAccess(pe int, at mem.Cycles, bytes, lines, misses int64, done mem.Cycles)
	// DRAMBurst reports one off-chip burst serving a shared-cache miss.
	DRAMBurst(start, done mem.Cycles, addr, bytes int64)
}

// Counting is a Tracer that only counts events — the cheapest possible
// sink, used by tests and overhead benchmarks.
type Counting struct {
	TaskGroups    int64
	SetOps        int64
	Workloads     int64
	CacheAccesses int64
	CacheLines    int64
	CacheMisses   int64
	DRAMBursts    int64
	DRAMBytes     int64
}

// TaskGroupBegin implements Tracer.
func (c *Counting) TaskGroupBegin(pe, engine int, at mem.Cycles, size int) { c.TaskGroups++ }

// TaskGroupEnd implements Tracer.
func (c *Counting) TaskGroupEnd(pe int, at mem.Cycles) {}

// SetOpIssue implements Tracer.
func (c *Counting) SetOpIssue(pe int, at mem.Cycles, kind string, longLen, shortLen, workloads int) {
	c.SetOps++
	c.Workloads += int64(workloads)
}

// CacheAccess implements Tracer.
func (c *Counting) CacheAccess(pe int, at mem.Cycles, bytes, lines, misses int64, done mem.Cycles) {
	c.CacheAccesses++
	c.CacheLines += lines
	c.CacheMisses += misses
}

// DRAMBurst implements Tracer.
func (c *Counting) DRAMBurst(start, done mem.Cycles, addr, bytes int64) {
	c.DRAMBursts++
	c.DRAMBytes += bytes
}
