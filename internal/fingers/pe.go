package fingers

import (
	"math/bits"

	"fingers/internal/accel"
	"fingers/internal/mem"
	"fingers/internal/mine"
	"fingers/internal/setops"
)

// IUStats reports the utilization measures of Table 3.
type IUStats struct {
	// AssignedIUCycles sums, per compute load, its subset size times its
	// duration — the paper's active-rate numerator (§6.4's worked
	// example: 2 IUs assigned a 10-cycle load in a 20-cycle window on 4
	// IUs is 25% active).
	AssignedIUCycles mem.Cycles
	// TotalCycles is the PE's total running time.
	TotalCycles mem.Cycles
	// NumIUs is the IU count the rates normalize against.
	NumIUs int
	// BalanceNum and BalanceDen accumulate the balance rate: for each
	// compute load (one set operation), the per-IU busy cycles of its
	// assigned subset over the load duration times the subset size.
	BalanceNum float64
	BalanceDen float64
}

// ActiveRate returns the fraction of IU-cycles with workloads assigned
// (§6.4).
func (s IUStats) ActiveRate() float64 {
	if s.TotalCycles == 0 || s.NumIUs == 0 {
		return 0
	}
	return float64(s.AssignedIUCycles) / (float64(s.TotalCycles) * float64(s.NumIUs))
}

// BalanceRate returns how evenly each load's IU subset was used (§6.4).
func (s IUStats) BalanceRate() float64 {
	if s.BalanceDen == 0 {
		return 0
	}
	return s.BalanceNum / s.BalanceDen
}

// Add merges o's counters into s; NumIUs is taken from o.
func (s *IUStats) Add(o IUStats) {
	s.AssignedIUCycles += o.AssignedIUCycles
	s.TotalCycles += o.TotalCycles
	s.BalanceNum += o.BalanceNum
	s.BalanceDen += o.BalanceDen
	s.NumIUs = o.NumIUs
}

// PE is one FINGERS processing element: the shared PE state walked in
// pseudo-DFS task groups, each group's tasks computed on the IU array.
type PE struct {
	accel.PEState
	cfg   Config
	stats IUStats

	// Adaptive group sizing: exponential moving average of the IUs one
	// task occupies, from its workload count (§4.1 uses average set sizes;
	// the workload count is exactly that estimate after segmentation).
	emaIUsPerTask float64

	// Scratch reused across tasks.
	iuBusy []mem.Cycles
	opBusy []mem.Cycles
	iuWl   []int
	// fresh counts the IUs assigned work this task. An idle IU is the
	// list scheduler's (busy, index) minimum, so a task's first workloads
	// go to IUs 0, 1, 2, … in turn: the busy IUs are exactly [0, fresh),
	// and the post-task scan and reset touch only those.
	fresh int
	// iuKeys is a binary min-heap of packed (busy<<16 | IU index) keys,
	// built once all IUs are busy: plain int64 order is exactly the
	// (busy, index) lexicographic order the list scheduler's
	// first-minimum scan resolves ties by. Only the root's key ever grows,
	// so one sift-down per workload maintains it.
	iuKeys []int64
	opWl   int
	// opTouched lists the IUs assigned work this op, so the post-op scan
	// and reset touch only those instead of sweeping all NumIUs entries
	// per (often tiny) op.
	opTouched []int
	// members/sorted are the task-group scratch: per-candidate fetch
	// geometry probed once, then partitioned cache-hits-first.
	members []member
	sorted  []member
}

// member is one task-group entry: a candidate with its neighbor-list
// fetch geometry and residency.
type member struct {
	v     uint32
	addr  int64
	bytes int64
	ready mem.Cycles
	hit   bool
}

// NewPE builds a FINGERS PE around the state the chip made for it; the
// method value cfg.NewPE is the PE factory accel.NewChip takes.
func (cfg Config) NewPE(st accel.PEState) accel.PE {
	pe := &PE{
		PEState:       st,
		cfg:           cfg,
		emaIUsPerTask: float64(cfg.NumIUs),
		iuBusy:        make([]mem.Cycles, cfg.NumIUs),
		opBusy:        make([]mem.Cycles, cfg.NumIUs),
		iuWl:          make([]int, cfg.NumIUs),
		iuKeys:        make([]int64, cfg.NumIUs),
		opTouched:     make([]int, 0, cfg.NumIUs),
	}
	pe.stats.NumIUs = cfg.NumIUs
	return pe
}

// Stats returns the IU utilization counters (finalized with the current
// clock).
func (pe *PE) Stats() IUStats {
	s := pe.stats
	s.TotalCycles = pe.Now
	return s
}

// groupSize returns the pseudo-DFS task-group size.
func (pe *PE) groupSize() int {
	if !pe.cfg.PseudoDFS {
		return 1
	}
	if pe.cfg.GroupSize > 0 {
		return pe.cfg.GroupSize
	}
	est := pe.emaIUsPerTask
	if est < 1 {
		est = 1
	}
	g := int(float64(pe.cfg.NumIUs)/est + 0.999)
	if g < 1 {
		g = 1
	}
	if g > pe.cfg.MaxGroupSize {
		g = pe.cfg.MaxGroupSize
	}
	return g
}

// Step processes one task group (or starts a new root tree).
func (pe *PE) Step() bool {
	if e, parent, group := pe.Next(pe.groupSize()); group != nil {
		pe.runGroup(e, parent, group)
		return true
	}
	v, ok := pe.NextRoot()
	if !ok {
		return false
	}
	pe.startRoot(v)
	return true
}

// startRoot begins the search tree rooted at v: one task per plan trunk,
// processed as a group so multi-pattern trunks share the root fetch.
func (pe *PE) startRoot(v uint32) {
	if pe.Trc != nil {
		pe.Trc.TaskGroupBegin(pe.ID, -1, pe.Now, len(pe.Engines))
	}
	pe.Access(pe.G.NeighborAddr(v), pe.G.NeighborBytes(v))
	t := pe.Now
	for i, e := range pe.Engines {
		node, info := e.Start(v)
		t = pe.computeTask(t, info)
		pe.Finish(i, node)
	}
	pe.Now = t
	pe.Groups++
	if pe.Trc != nil {
		pe.Trc.TaskGroupEnd(pe.ID, t)
	}
}

// runGroup executes a pseudo-DFS task group: the neighbor-list fetches of
// all member tasks are issued at once (cache hits return immediately and
// reorder ahead, §4.1), and member tasks compute back-to-back on the IU
// array while later fetches are still in flight.
func (pe *PE) runGroup(engineIdx int, parent *mine.Node, cands []uint32) {
	e := pe.Engines[engineIdx]
	start := pe.Now
	probed := pe.members[:0]
	for _, v := range cands {
		addr, bytes := pe.G.NeighborAddr(v), pe.G.NeighborBytes(v)
		probed = append(probed, member{v: v, addr: addr, bytes: bytes, hit: pe.Mem.Probe(addr, bytes)})
	}
	pe.members = probed
	// Cache-resident tasks are scheduled first — the implicit selection
	// the paper implements by letting hits return immediately. The stable
	// hits-then-misses partition preserves candidate order within each
	// class.
	members := pe.sorted[:0]
	for i := range probed {
		if probed[i].hit {
			members = append(members, probed[i])
		}
	}
	for i := range probed {
		if !probed[i].hit {
			members = append(members, probed[i])
		}
	}
	pe.sorted = members
	if pe.Trc != nil {
		pe.Trc.TaskGroupBegin(pe.ID, engineIdx, start, len(cands))
	}
	for i := range members {
		members[i].ready = pe.Mem.Access(start, members[i].addr, members[i].bytes)
	}
	t := start
	for i := range members {
		m := &members[i]
		ready := m.ready
		if t > ready {
			ready = t
		} else {
			// The fetch outlived all overlapped computation: the rest is
			// exposed memory latency.
			pe.BD.MemStall += ready - t
		}
		node, info := e.Extend(parent, m.v)
		t = pe.computeTask(ready, info)
		pe.Finish(engineIdx, node)
	}
	pe.Now = t
	pe.Groups++
	if pe.Trc != nil {
		pe.Trc.TaskGroupEnd(pe.ID, t)
	}
}

// computeTask charges one task's compute phase: every distinct set
// operation is segment-paired by the task dividers and its workloads are
// list-scheduled across the IU array (§4.2, §4.3). Postponed ancestor
// fetches are charged exposed at compute start (they are almost always
// shared-cache hits). Returns the completion time.
//
// The PE is a five-stage macro pipeline (§4), so back-to-back tasks are
// throughput-bound by their slowest stage — the IU occupancy for normal
// tasks, or the divider / round-robin collection time for tiny ones — not
// by the sum of all stage latencies.
func (pe *PE) computeTask(ready mem.Cycles, info mine.TaskInfo) mem.Cycles {
	pe.Tasks++
	// iuBusy/iuWl are all-zero and fresh is zero here: the previous task
	// reset exactly the IUs it used.
	fetchStart := ready
	// Extra fetches beyond the new vertex's list (postponed ancestors).
	for _, v := range info.FetchVertices[1:] {
		ready = pe.Mem.Access(ready, pe.G.NeighborAddr(v), pe.G.NeighborBytes(v))
	}
	searchSteps := 0
	totalWorkloads := 0
	for i := range info.Ops {
		op := &info.Ops[i]
		// Candidate sets beyond the private cache spill via shared cache.
		if int64(len(op.Short))*4 > pe.cfg.PrivateCacheBytes {
			ready = pe.Mem.Access(ready, pe.SpillAddr(), int64(len(op.Short))*4)
		}
		before := totalWorkloads
		searchSteps, totalWorkloads = pe.chargeOp(op, searchSteps, totalWorkloads)
		if pe.Trc != nil {
			pe.Trc.SetOpIssue(pe.ID, ready, op.Kind.String(), len(op.Long), len(op.Short), totalWorkloads-before)
		}
	}
	// Serialized ancestor fetches and spill traffic are exposed latency.
	pe.BD.MemStall += ready - fetchStart
	usedIUs := pe.fresh
	// Each IU receives inputs and surrenders results through the serial
	// round-robin sweeps (§4.3), whose period is proportional to the
	// number of IUs in flight: an IU's next workload arrives one sweep
	// after its previous one, so its effective occupancy is at least its
	// workload count times the sweep period. This is hidden while
	// workloads run longer than the sweep — the paper's condition
	// s_l + 3·s_s > #IUs — and becomes the bottleneck when iso-area
	// scaling shrinks segments (the Figure 12 drop at 48 IUs).
	rrPeriod := mem.Cycles(usedIUs)
	var maxBusy mem.Cycles
	for i := 0; i < usedIUs; i++ {
		eff := pe.iuBusy[i]
		if rr := mem.Cycles(pe.iuWl[i]) * rrPeriod; rr > eff {
			eff = rr
		}
		if eff > maxBusy {
			maxBusy = eff
		}
		pe.iuBusy[i] = 0
		pe.iuWl[i] = 0
	}
	pe.fresh = 0
	// Divider stage: short heads stream through the long-head tree,
	// spread over the parallel task dividers.
	divider := mem.Cycles((searchSteps + pe.cfg.NumDividers - 1) / pe.cfg.NumDividers)
	// Result-collection tail: the final sweep drains in-flight workloads.
	drain := rrPeriod
	// Update the adaptive group-size estimate.
	iusThisTask := float64(totalWorkloads)
	if iusThisTask > float64(pe.cfg.NumIUs) {
		iusThisTask = float64(pe.cfg.NumIUs)
	}
	if iusThisTask < 1 {
		iusThisTask = 1
	}
	const emaAlpha = 0.05
	pe.emaIUsPerTask = (1-emaAlpha)*pe.emaIUsPerTask + emaAlpha*iusThisTask
	// Pipeline throughput: the slowest stage bounds this task's slot.
	step := maxBusy
	if divider > step {
		step = divider
	}
	if drain > step {
		step = drain
	}
	if pe.cfg.TaskOverheadCycles > step {
		step = pe.cfg.TaskOverheadCycles
	}
	// Attribution: the IU-bound portion is compute; anything the divider,
	// collector sweeps, or fixed task cost add beyond it is overhead.
	pe.BD.Compute += maxBusy
	pe.BD.Overhead += step - maxBusy
	return ready + step
}

// chargeOp segments one set operation, pairs its long and short
// segments by overlapping value ranges, derives the balanced workloads
// (the geometry setops.Pair and setops.Balance produce, without
// materializing either), and list-schedules each onto the
// earliest-available IU. It returns the accumulated divider search steps
// and workload count.
//
// Pairing is one two-pointer walk: the short segments overlapping long
// segment k are the contiguous range [lo, hi) of those ending at or above
// its first element and starting at or below its last, and neither end
// moves backwards as k grows.
func (pe *PE) chargeOp(op *mine.SetOpExec, searchSteps, totalWorkloads int) (int, int) {
	long := setops.Segment(op.Long, pe.cfg.LongSegLen)
	short := setops.Segment(op.Short, pe.cfg.ShortSegLen)
	nl, ns := long.NumSegments(), short.NumSegments()
	if nl > 0 && ns > 0 {
		// The divider streams each short head through a binary tree of
		// the long heads (Figure 7): ceil(log2(nl+1)) comparisons per
		// short head. A task divider matches up to 15 long heads against
		// up to 24 short heads at a time (§4.2); longer head lists are
		// split into chunks, each short head re-streaming through every
		// long-head chunk. Shorter segments mean longer head lists mean
		// more chunking work.
		longChunks := (nl + dividerLongHeads - 1) / dividerLongHeads
		searchSteps += ns * bits.Len(uint(nl)) * longChunks
	}
	maxLoad := pe.cfg.MaxLoad
	if maxLoad < 1 {
		maxLoad = 1
	}
	// opBusy is all-zero here (the previous op reset its touched entries).
	pe.opTouched = pe.opTouched[:0]
	pe.opWl = 0
	ld, sd, sl, ss := long.Data, short.Data, long.SegLen, short.SegLen
	lo, hi := 0, 0
	covered := 0 // subtraction: next short segment not yet known unpaired
	for k := 0; k < nl; k++ {
		first := k * sl
		last := min(first+sl, len(ld)) - 1
		for lo < ns && sd[min((lo+1)*ss, len(sd))-1] < ld[first] {
			lo++
		}
		for hi < ns && sd[hi*ss] <= ld[last] {
			hi++
		}
		ll := last - first + 1
		if lo == hi {
			// An unpaired long segment carries a workload only under
			// anti-subtraction.
			if op.Kind == setops.OpAntiSubtract {
				pe.schedule(mem.Cycles(ll))
			}
			continue
		}
		if op.Kind == setops.OpSubtract {
			// Unpaired short segments before this long's range survive
			// wholesale and become pass-through workloads.
			for ; covered < lo; covered++ {
				pe.schedule(mem.Cycles(short.SegSize(covered)))
			}
			covered = hi
		}
		for s := lo; s < hi; s += maxLoad {
			pe.schedule(mem.Cycles(ll + short.SpanSize(s, min(maxLoad, hi-s))))
		}
	}
	if op.Kind == setops.OpSubtract {
		for ; covered < ns; covered++ {
			pe.schedule(mem.Cycles(short.SegSize(covered)))
		}
	}
	opWorkloads := pe.opWl
	// Balance-rate bookkeeping for this load's IU subset.
	var dur, sum mem.Cycles
	subset := len(pe.opTouched)
	for _, i := range pe.opTouched {
		b := pe.opBusy[i]
		sum += b
		if b > dur {
			dur = b
		}
		pe.opBusy[i] = 0
	}
	if subset > 0 {
		pe.stats.BalanceNum += float64(sum)
		pe.stats.BalanceDen += float64(dur) * float64(subset)
		pe.stats.AssignedIUCycles += dur * mem.Cycles(subset)
	}
	return searchSteps, totalWorkloads + opWorkloads
}

// schedule assigns one workload to the earliest-available IU: the
// lexicographic (busy, index) minimum, which is exactly the first index a
// linear scan for the least-busy IU would report. While some IU is idle
// that is IU fresh. Once all are busy, a min-heap of packed keys finds
// it: only the chosen IU's key grows, so the heap root is the only entry
// that can violate heap order afterwards, and the root's new key is
// sifted down with primitive int64 comparisons.
func (pe *PE) schedule(cycles mem.Cycles) {
	if cycles < 1 {
		cycles = 1
	}
	h := pe.iuKeys
	idle := pe.fresh < len(h)
	best := pe.fresh
	if idle {
		pe.fresh++
	} else {
		best = int(h[0] & 0xffff)
	}
	if pe.opBusy[best] == 0 {
		pe.opTouched = append(pe.opTouched, best)
	}
	pe.iuBusy[best] += cycles
	pe.opBusy[best] += cycles
	pe.iuWl[best]++
	pe.opWl++
	if !idle {
		siftIU(h, 0, h[0]+int64(cycles)<<16)
	} else if pe.fresh == len(h) {
		// The last idle IU is taken: heap-order every IU's key.
		for i, b := range pe.iuBusy {
			h[i] = int64(b)<<16 | int64(i)
		}
		for i := len(h)/2 - 1; i >= 0; i-- {
			siftIU(h, i, h[i])
		}
	}
}

// siftIU places key at position i of the IU heap h, moving it down
// hole-style past every smaller child.
func siftIU(h []int64, i int, key int64) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		m := l
		if r := l + 1; r < len(h) && h[r] < h[l] {
			m = r
		}
		if h[m] >= key {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = key
}
