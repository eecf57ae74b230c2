package fingers

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"fingers/internal/accel"
	fingerspe "fingers/internal/fingers"
	"fingers/internal/flexminer"
	"fingers/internal/mem"
	"fingers/internal/telemetry"
)

// WithShards partitions the run's root vertices across n independent
// engine instances — each with its own chip, PE pool, and cache/DRAM/NoC
// model, each on the serial event loop — executed on separate OS
// threads and merged into one SimReport (DESIGN.md §14). The PE budget
// is divided across shards, so WithShards(4) on a 8-PE run simulates
// four 2-PE chips over disjoint contiguous root ranges, weighted by
// root degree so each shard streams a comparable share of the CSR.
//
// Sharding changes the simulated design point: each shard owns a full
// private cache and NoC, so merged Cycles model an N-chip fleet rather
// than one chip. Embedding counts, task totals, and traffic sums are
// exactly the single-chip numbers regardless of shard count. n <= 1
// (and the default 0) runs unsharded; n larger than the PE count is
// clamped so every shard keeps at least one PE.
func WithShards(n int) SimOption { return func(c *simConfig) { c.shards = n } }

// peOffsetTracer renames PE ids in a shard's telemetry stream to the
// global id space before forwarding, so a traced sharded run emits one
// coherent event stream.
type peOffsetTracer struct {
	base int
	next telemetry.Tracer
}

func (t peOffsetTracer) TaskGroupBegin(pe, engine int, at mem.Cycles, size int) {
	t.next.TaskGroupBegin(pe+t.base, engine, at, size)
}
func (t peOffsetTracer) TaskGroupEnd(pe int, at mem.Cycles) { t.next.TaskGroupEnd(pe+t.base, at) }
func (t peOffsetTracer) SetOpIssue(pe int, at mem.Cycles, kind string, longLen, shortLen, workloads int) {
	t.next.SetOpIssue(pe+t.base, at, kind, longLen, shortLen, workloads)
}
func (t peOffsetTracer) CacheAccess(pe int, at mem.Cycles, bytes, lines, misses int64, done mem.Cycles) {
	t.next.CacheAccess(pe+t.base, at, bytes, lines, misses, done)
}
func (t peOffsetTracer) DRAMBurst(start, done mem.Cycles, addr, bytes int64) {
	t.next.DRAMBurst(start, done, addr, bytes)
}

// shardPEShares splits a PE budget across shards as evenly as integers
// allow: pes/shards each, with the first pes%shards shards taking one
// extra.
func shardPEShares(pes, shards int) []int {
	shares := make([]int, shards)
	for s := range shares {
		shares[s] = pes / shards
		if s < pes%shards {
			shares[s]++
		}
	}
	return shares
}

// runSharded executes one Simulate call as shards independent chips,
// merged deterministically in shard order. One shard — the default — is
// the whole chip: it runs over every root on the calling goroutine,
// with no partition pass, PE-id renaming, or progress lock. Two or more
// run over a degree-weighted contiguous root partition, concurrently
// (serially when a tracer is attached, to keep the event stream in
// deterministic shard order). The caller has already validated cfg and
// resolved the context; shards is the effective (clamped) shard count,
// >= 1.
func runSharded(ctx context.Context, arch Arch, g *Graph, plans []*Plan, cfg simConfig, shards int) (rep SimReport, err error) {
	shares := shardPEShares(cfg.pes, shards)
	scheds := make([]*accel.RootScheduler, shards) // nil: every root in ID order
	if shards > 1 {
		parts := accel.PartitionRootsWeighted(g.NumVertices(), func(i int) int64 {
			d := float64(g.Degree(uint32(i)))
			return int64(d*math.Sqrt(d)) + 1
		}, shares)
		for s := range scheds {
			scheds[s] = accel.NewRootSchedulerRange(parts[s][0], parts[s][1])
		}
	}

	var newPE func(accel.PEState) accel.PE
	switch arch {
	case ArchFingers:
		newPE = cfg.fiCfg.NewPE
	case ArchFlexMiner, ArchSISA:
		fmCfg := flexminer.DefaultConfig()
		fmCfg.SetCentric = arch == ArchSISA
		newPE = fmCfg.NewPE
	default:
		return rep, fmt.Errorf("fingers: Simulate: unknown architecture %d", int(arch))
	}
	chips := make([]*accel.Chip, shards)
	for s := range chips {
		var cerr error
		chips[s], cerr = accel.NewChip(shares[s], cfg.cacheBytes, g, plans, scheds[s], newPE)
		if cerr != nil {
			return rep, fmt.Errorf("fingers: Simulate: %w", cerr)
		}
	}

	// A traced run serializes shards so events reach the tracer in
	// deterministic (shard, cycle) order; with several shards the id-offset
	// wrapper moves each shard's PEs into the global id space. Untraced
	// runs of several shards — the performance path — run every shard on
	// its own OS thread.
	serialize := cfg.tracer != nil || shards == 1
	if cfg.tracer != nil {
		peBase := 0
		for s, c := range chips {
			var tr telemetry.Tracer = cfg.tracer
			if shards > 1 {
				tr = peOffsetTracer{base: peBase, next: cfg.tracer}
			}
			c.SetTracer(tr)
			peBase += shares[s]
		}
	}

	// The progress callback contract is per-engine; shard snapshots are
	// forwarded as they come, serialized by a mutex so a WithProgress fn
	// never runs concurrently with itself.
	every, fn := cfg.progressEvery, cfg.progressFn
	if every <= 0 || fn == nil {
		every, fn = 0, nil
	}
	if fn != nil && !serialize {
		var mu sync.Mutex
		inner := fn
		fn = func(p SimProgress) {
			mu.Lock()
			defer mu.Unlock()
			inner(p)
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]SimResult, shards)
	errs := make([]error, shards)
	walls := make([]int64, shards)
	var errMu sync.Mutex
	runShard := func(s int) {
		t0 := time.Now()
		var rerr error
		results[s], rerr = chips[s].Run(ctx, every, fn)
		walls[s] = time.Since(t0).Nanoseconds()
		if rerr != nil {
			errMu.Lock()
			errs[s] = rerr
			if err == nil {
				err = rerr
				// Stop sibling shards: the merged report is partial
				// either way, and finishing them buys nothing.
				cancel()
			}
			errMu.Unlock()
		}
	}
	if serialize {
		for s := range chips {
			runShard(s)
		}
	} else {
		var wg sync.WaitGroup
		for s := range chips {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				runShard(s)
			}(s)
		}
		wg.Wait()
	}

	rep = mergeShardReports(cfg, chips, shares, results, errs)
	if shards > 1 {
		rep.ShardWallNS = walls
	}
	if err != nil {
		rep.Partial = true
	}
	return rep, err
}

// mergeShardReports folds per-shard outcomes into one SimReport in
// canonical shard order, so the merged report is a pure function of the
// shard results: counts, tasks, busy cycles and traffic sum; the
// makespan is the fleet horizon (max over shards); per-PE records are
// renamed into the global PE id space with Idle extended to the global
// horizon, keeping the breakdown-sums-to-makespan invariant.
func mergeShardReports(cfg simConfig, chips []*accel.Chip, shares []int, results []SimResult, errs []error) SimReport {
	rep := SimReport{Shards: len(chips)}
	for _, r := range results {
		if r.Cycles > rep.Result.Cycles {
			rep.Result.Cycles = r.Cycles
		}
	}
	global := rep.Result.Cycles
	anyErr := false
	for s, r := range results {
		rep.Result.Count += r.Count
		rep.Result.Tasks += r.Tasks
		rep.Result.PEBusy += r.PEBusy
		rep.Result.SharedCache.LineAccesses += r.SharedCache.LineAccesses
		rep.Result.SharedCache.LineMisses += r.SharedCache.LineMisses
		rep.Result.DRAM.Accesses += r.DRAM.Accesses
		rep.Result.DRAM.BytesMoved += r.DRAM.BytesMoved
		bd := r.Breakdown
		bd.Idle += (global - r.Cycles) * mem.Cycles(shares[s])
		rep.Result.Breakdown.Accumulate(bd)
		rep.RootsTotal += chips[s].RootsTotal()
		rep.RootsDone += chips[s].RootsDispatched()
		if errs[s] != nil {
			anyErr = true
		}
	}
	if cfg.stats || cfg.tracer != nil || anyErr {
		base := 0
		for s, c := range chips {
			lag := global - results[s].Cycles
			for _, r := range c.PERecords() {
				r.PE += base
				r.Cycles = global
				r.Breakdown.Idle += lag
				rep.PerPE = append(rep.PerPE, r)
			}
			base += shares[s]
		}
	}
	if cfg.stats {
		for _, c := range chips {
			for _, pe := range c.PEs {
				if fi, ok := pe.(*fingerspe.PE); ok {
					rep.IU.Add(fi.Stats())
				}
			}
		}
	}
	return rep
}
