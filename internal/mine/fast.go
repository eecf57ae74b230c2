package mine

import (
	"fingers/internal/graph"
	"fingers/internal/plan"
	"fingers/internal/setops"
)

// Counter is the adaptive software miner: it walks the same search tree
// as Engine but is built for CPU throughput rather than hardware-model
// fidelity. Five things distinguish it (and are why Count/CountParallel
// route through it):
//
//   - adaptive kernel dispatch: every set operation picks its kernel per
//     call — probing v's stored row (graph.HybridAdj) with the candidate
//     set, galloping the candidate set through a much longer N(v), or
//     mark-and-probe;
//   - mark-and-probe: every child of a search-tree node updates the
//     node's candidate sets with its own neighbor list, so the first
//     child to need a set marks it in a full-universe bitset, and each
//     child then walks only its neighbor list against the marks instead
//     of merging the set again;
//   - lean schedules: a subtract reuses its sibling's intersection of the
//     same set (S − N = S − (S ∩ N)), and steps whose results only matter
//     below a child wait until the node's first child is found;
//   - zero steady-state allocation: candidate sets live in per-level
//     scratch buffers that are reused across siblings and roots, so after
//     buffer capacities warm up, mining a root allocates nothing;
//   - leaf counting without materialization: when the last extending
//     level performs a single intersect/subtract, the embedding count is
//     computed directly from counting kernels over the symmetry-breaking
//     window.
//
// A Counter is not safe for concurrent use; create one per worker (it is
// the "per-worker scratch arena" of the work-stealing scheduler).
// Counts are bit-identical to Engine's: the kernels differ, the set
// algebra does not.
type Counter struct {
	g     *graph.Graph
	pl    *plan.Plan
	sched [][]step
	eager []int // per level, the count of leading non-lazy steps
	adj   *graph.HybridAdj
	k     int

	verts  []uint32
	frames []frame
	stats  KernelStats
	// dirty is set while Root runs; finding it set on entry means an
	// earlier Root panicked and may have left sets marked.
	dirty bool
}

// frame is one level's scratch arena.
type frame struct {
	// sets[j] is the candidate set for slot j after this level's steps,
	// pointing into a buf below, a shallower frame's buf, or graph
	// storage. Reading sets[st.src] before the step writes its targets
	// yields the parent's value (each slot is written once per level).
	sets [][]uint32
	// alias[j] is the vertex whose raw neighbor list sets[j] aliases
	// (an OpInit step with no postponed ancestors), or -1 once any
	// kernel has rewritten the slot. It lets the leaf fast path
	// recognize N(u) op N(v) shapes and count them entirely on stored
	// rows — the pure-popcount path of the hybrid storage tentpole.
	alias []int64
	// bufs[i] is step i's reusable result buffer; capacity only grows.
	bufs [][]uint32
	// scratch holds the intersection a mark-probed subtract removes when
	// no sibling step computed it.
	scratch []uint32

	// marks[m] is the full-universe bitset of mark slot m (see
	// step.mark), allocated on first use; marked[m] is the set marked in
	// it, or nil. Marks are set lazily by the first child that probes
	// and cleared when the node's children are done.
	marks  [][]uint64
	marked [][]uint32
}

// KernelStats counts kernel-dispatch decisions, split between
// materializing operations and leaf counting. Merge only counts the
// postponed anti-subtractions of OpInit steps. BmProbe/CountBmProbe are
// array×bitmap container probes; CountBmWord is the word-parallel
// popcount leaf path over two stored rows. Probe/CountProbe walk a
// neighbor list against the marked candidate set; Subset subtracts a
// sibling step's intersection; Marks counts the sets marked.
type KernelStats struct {
	Merge, Gallop, Bits, BmProbe, Probe, Subset      uint64
	CountGallop, CountBits, CountBmProbe, CountProbe uint64
	CountBmWord                                      uint64
	Marks                                            uint64
}

// Total returns the number of dispatched operations (marking a set is
// not one).
func (s KernelStats) Total() uint64 {
	return s.Merge + s.Gallop + s.Bits + s.BmProbe + s.Probe + s.Subset +
		s.CountGallop + s.CountBits + s.CountBmProbe + s.CountProbe +
		s.CountBmWord
}

// NewCounter returns a reusable adaptive miner for the plan on g, using
// the graph's cached adaptive hybrid view (so parallel workers never
// duplicate rows): dense rows for hubs, compressed bitmaps where the
// density heuristic approves, CSR arrays otherwise.
func NewCounter(g *graph.Graph, pl *plan.Plan) *Counter {
	return newCounter(g, pl, g.Hybrid())
}

// newCounter returns a Counter whose kernels read stored rows from adj,
// which tests build under a forced policy or hub threshold.
func newCounter(g *graph.Graph, pl *plan.Plan, adj *graph.HybridAdj) *Counter {
	c := &Counter{
		g:     g,
		pl:    pl,
		sched: buildSchedule(pl),
		adj:   adj,
		k:     pl.K(),
	}
	c.eager = make([]int, len(c.sched))
	for level, steps := range c.sched {
		for _, st := range steps {
			if !st.lazy {
				c.eager[level]++
			}
		}
	}
	c.verts = make([]uint32, c.k)
	c.frames = make([]frame, c.k-1)
	for level := range c.frames {
		f := &c.frames[level]
		f.sets = make([][]uint32, c.k)
		f.alias = make([]int64, c.k)
		f.bufs = make([][]uint32, len(c.sched[level]))
		if level+1 < len(c.sched) {
			slots := 0
			for _, st := range c.sched[level+1] {
				slots = max(slots, st.mark+1)
			}
			f.marks = make([][]uint64, slots)
			f.marked = make([][]uint32, slots)
		}
	}
	return c
}

// Stats returns the kernel-dispatch counters accumulated so far.
func (c *Counter) Stats() KernelStats { return c.stats }

// Root mines the search tree rooted at v0 and returns its embedding
// count. After buffer warm-up it performs no heap allocation.
func (c *Counter) Root(v0 uint32) uint64 {
	if c.dirty {
		c.clearMarks()
	}
	c.dirty = true
	n := c.descend(0, v0)
	c.dirty = false
	return n
}

// clearMarks zeroes every mark bitset, recovering from a Root that
// panicked with sets still marked.
func (c *Counter) clearMarks() {
	for level := range c.frames {
		f := &c.frames[level]
		for m := range f.marks {
			clear(f.marks[m])
			f.marked[m] = nil
		}
	}
}

// marksFor returns the bitset in which the parent set src of the update
// st at the given level is marked, marking it now if no sibling has yet.
// Marking and unmarking cost about one merge pass over src, which the
// first probing child already recovers: probing skips the merge's
// unpredictable branches, and later siblings skip src altogether.
func (c *Counter) marksFor(level int, st *step, src []uint32) []uint64 {
	p := &c.frames[level-1]
	if p.marked[st.mark] == nil {
		if p.marks[st.mark] == nil {
			p.marks[st.mark] = make([]uint64, (c.g.NumVertices()+63)/64)
		}
		c.stats.Marks++
		setops.Mark(p.marks[st.mark], src)
		p.marked[st.mark] = src
	}
	return p.marks[st.mark]
}

// unmark clears every set the node's children marked in f.
func (f *frame) unmark() {
	for m, s := range f.marked {
		if s != nil {
			setops.Unmark(f.marks[m], s)
			f.marked[m] = nil
		}
	}
}

func (c *Counter) descend(level int, v uint32) uint64 {
	c.verts[level] = v
	f := &c.frames[level]
	if level == 0 {
		for i := range f.sets {
			f.sets[i] = nil
			f.alias[i] = -1
		}
	} else {
		copy(f.sets, c.frames[level-1].sets)
		copy(f.alias, c.frames[level-1].alias)
	}
	nv := c.g.Neighbors(v)
	steps := c.sched[level]

	if level == c.k-2 {
		// Leaf fast path: a lone update step materializing only the final
		// slot can be counted without writing the result.
		if len(steps) == 1 && steps[0].op != plan.OpInit {
			return c.leafCountUpdate(&steps[0], f, nv, v)
		}
		c.applySteps(level, f, steps, 0, nv, v)
		return c.leafCountSet(f.sets[c.k-1])
	}

	eager := c.eager[level]
	c.applySteps(level, f, steps[:eager], 0, nv, v)
	set := f.sets[level+1]
	a, b := c.window(level+1, set)
	used := c.verts[:level+1]
	var total uint64
	for _, w := range set[a:b] {
		if containsVert(used, w) {
			continue
		}
		if eager < len(steps) {
			c.applySteps(level, f, steps, eager, nv, v)
			eager = len(steps)
		}
		total += c.descend(level+1, w)
	}
	f.unmark()
	return total
}

// applySteps executes steps[from:] of one level's schedule into the
// frame's arenas.
func (c *Counter) applySteps(level int, f *frame, steps []step, from int, nv []uint32, v uint32) {
	for si := from; si < len(steps); si++ {
		st := &steps[si]
		var result []uint32
		aliasVert := int64(-1)
		if st.op == plan.OpInit {
			if len(st.pending) == 0 {
				// No postponed ancestors: the slot aliases the (read-only)
				// neighbor list, costing nothing.
				result = nv
				aliasVert = int64(v)
			} else {
				buf := f.bufs[si][:0]
				anc := c.verts[st.pending[0]]
				buf = c.subtractNeighborsInto(buf, nv, anc)
				for _, m := range st.pending[1:] {
					buf = c.subtractNeighborsInPlace(buf, c.verts[m])
				}
				f.bufs[si] = buf
				result = buf
			}
		} else {
			src := f.sets[st.src] // parent's value: targets not yet written
			buf := c.updateInto(level, f, st, f.bufs[si][:0], src, nv, v)
			f.bufs[si] = buf
			result = buf
		}
		for _, t := range st.targets {
			f.sets[t] = result
			f.alias[t] = aliasVert
		}
	}
}

// updateInto computes st's op(src, N(v)) into dst with format-aware
// dispatch: a subtract whose sibling step already intersected the same
// source removes that intersection; otherwise a dense row, then a
// compressed bitmap row, is probed with src's elements. Two arrays
// gallop src's elements through an N(v) many times longer, and
// otherwise walk N(v) against the marked src.
func (c *Counter) updateInto(level int, f *frame, st *step, dst, src, nv []uint32, v uint32) []uint32 {
	if st.inter >= 0 {
		c.stats.Subset++
		return setops.SubtractSubsetInto(dst, src, f.bufs[st.inter])
	}
	if len(src) == 0 {
		return dst
	}
	row, bm := c.adj.Rows(v)
	if st.op == plan.OpIntersect {
		switch {
		case row != nil:
			c.stats.Bits++
			return setops.IntersectBitsInto(dst, src, row)
		case bm != nil:
			c.stats.BmProbe++
			return setops.IntersectArrayBitmapInto(dst, src, bm)
		}
	} else {
		switch {
		case row != nil:
			c.stats.Bits++
			return setops.SubtractBitsInto(dst, src, row)
		case bm != nil:
			c.stats.BmProbe++
			return setops.SubtractArrayBitmapInto(dst, src, bm)
		}
	}
	if len(nv) >= setops.GallopSkewThreshold*len(src) {
		c.stats.Gallop++
		if st.op == plan.OpIntersect {
			return setops.IntersectGallopingInto(dst, src, nv)
		}
		return setops.SubtractGallopingInto(dst, src, nv)
	}
	marks := c.marksFor(level, st, src)
	c.stats.Probe++
	if st.op == plan.OpIntersect {
		return setops.IntersectBitsInto(dst, nv, marks)
	}
	f.scratch = setops.IntersectBitsInto(f.scratch[:0], nv, marks)
	return setops.SubtractSubsetInto(dst, src, f.scratch)
}

// subtractNeighborsInto computes a − N(anc) into dst (the postponed
// anti-subtraction of §2.1, candidate side first).
func (c *Counter) subtractNeighborsInto(dst, a []uint32, anc uint32) []uint32 {
	row, bm := c.adj.Rows(anc)
	if row != nil {
		c.stats.Bits++
		return setops.SubtractBitsInto(dst, a, row)
	}
	if bm != nil {
		c.stats.BmProbe++
		return setops.SubtractArrayBitmapInto(dst, a, bm)
	}
	ancN := c.g.Neighbors(anc)
	if len(ancN) >= setops.GallopSkewThreshold*len(a) {
		c.stats.Gallop++
	} else {
		c.stats.Merge++
	}
	return setops.SubtractGallopingInto(dst, a, ancN)
}

// subtractNeighborsInPlace compacts a to a − N(anc) in place.
func (c *Counter) subtractNeighborsInPlace(a []uint32, anc uint32) []uint32 {
	row, bm := c.adj.Rows(anc)
	if row != nil {
		c.stats.Bits++
		return setops.SubtractBitsInPlace(a, row)
	}
	if bm != nil {
		c.stats.BmProbe++
		return setops.SubtractArrayBitmapInPlace(a, bm)
	}
	ancN := c.g.Neighbors(anc)
	if len(ancN) >= setops.GallopSkewThreshold*len(a) {
		c.stats.Gallop++
	} else {
		c.stats.Merge++
	}
	return setops.SubtractInPlace(a, ancN)
}

// leafCountUpdate counts op(src, N(v)) restricted to the final level's
// symmetry-breaking window, excluding already-used vertices, without
// materializing the result.
func (c *Counter) leafCountUpdate(st *step, f *frame, nv []uint32, v uint32) uint64 {
	src := f.sets[st.src]
	// Pure-popcount path: when the source slot still aliases N(u) and
	// both u and v keep stored rows (dense or bitmap), the whole leaf
	// count happens on container words — no array is even read.
	if au := f.alias[st.src]; au >= 0 {
		if cnt, ok := c.leafCountRows(st.op, uint32(au), v); ok {
			return cnt
		}
	}
	a, b := c.window(c.k-1, src)
	win := src[a:b]
	if len(win) == 0 {
		return 0
	}
	row, bm := c.adj.Rows(v)
	cnt, marks := c.leafIntersectCount(st, src, a, b, nv, row, bm)
	if st.op != plan.OpIntersect {
		cnt = len(win) - cnt
	}
	// Within [first, last], u ∈ win is one bit test when src is marked.
	first, last := win[0], win[len(win)-1]
	for _, u := range c.verts[:c.k-1] {
		if u < first || u > last {
			continue
		}
		if marks != nil {
			if !setops.BitsContain(marks, u) {
				continue
			}
		} else if !setops.Contains(win, u) {
			continue
		}
		if c.leafMember(nv, row, bm, u) == (st.op == plan.OpIntersect) {
			cnt--
		}
	}
	return uint64(cnt)
}

// leafIntersectCount returns |win ∩ N(v)| for the leaf update st, where
// win = src[a:b] is a nonempty window of st's source: through v's stored
// row when it has one, by galloping win's elements through an N(v) many
// times longer, and otherwise by walking N(v) against the marked src.
// It also returns the bitset src is marked in when it probed, nil
// otherwise.
func (c *Counter) leafIntersectCount(st *step, src []uint32, a, b int, nv []uint32, row []uint64, bm *setops.Bitmap) (int, []uint64) {
	win := src[a:b]
	switch {
	case row != nil:
		c.stats.CountBits++
		return setops.IntersectCountBits(win, row), nil
	case bm != nil:
		c.stats.CountBmProbe++
		return setops.IntersectArrayBitmapCount(win, bm), nil
	}
	// Clip N(v) to win's value range where the window cut src: there the
	// marked src holds exactly win.
	if a > 0 {
		nv = nv[setops.LowerBound(nv, win[0]):]
	}
	if b < len(src) {
		nv = nv[:setops.UpperBound(nv, win[len(win)-1])]
	}
	if len(nv) >= setops.GallopSkewThreshold*len(win) {
		c.stats.CountGallop++
		return setops.IntersectCountGalloping(win, nv), nil
	}
	marks := c.marksFor(c.k-2, st, src)
	c.stats.CountProbe++
	return setops.IntersectCountBits(nv, marks), marks
}

// leafCountRows counts op(N(u), N(v)) within the leaf window entirely
// on stored rows, returning ok=false when either vertex lacks one. The
// set algebra is identical to the array path: the bounded kernels count
// the same open interval the window() slicing selects, and the
// used-vertex exclusion applies the same membership tests.
func (c *Counter) leafCountRows(op plan.OpKind, u, v uint32) (uint64, bool) {
	uDense, uBm := c.adj.Rows(u)
	if uDense == nil && uBm == nil {
		return 0, false
	}
	vDense, vBm := c.adj.Rows(v)
	if vDense == nil && vBm == nil {
		return 0, false
	}
	lo, hi, hasLo, hasHi := c.windowBounds(c.k - 1)
	var inter int
	switch {
	case uBm != nil && vBm != nil:
		c.stats.CountBmWord++
		inter = setops.IntersectBitmapsCountBounded(uBm, vBm, lo, hi, hasLo, hasHi)
	case uBm != nil:
		c.stats.CountBmWord++
		inter = setops.IntersectBitmapBitsCountBounded(uBm, vDense, lo, hi, hasLo, hasHi)
	case vBm != nil:
		c.stats.CountBmWord++
		inter = setops.IntersectBitmapBitsCountBounded(vBm, uDense, lo, hi, hasLo, hasHi)
	default:
		// Two dense rows: still the bitvector kernel family, word-parallel.
		c.stats.CountBits++
		inter = setops.IntersectBitsCountBounded(uDense, vDense, lo, hi, hasLo, hasHi)
	}
	cnt := inter
	if op != plan.OpIntersect {
		var total int
		if uBm != nil {
			total = uBm.CountBounded(lo, hi, hasLo, hasHi)
		} else {
			total = setops.CountBitsBounded(uDense, lo, hi, hasLo, hasHi)
		}
		cnt = total - inter
	}
	for _, w := range c.verts[:c.k-1] {
		if hasLo && w <= lo {
			continue
		}
		if hasHi && w >= hi {
			continue
		}
		if !uBm.Contains(w) && !setops.BitsContain(uDense, w) {
			continue
		}
		inV := vBm.Contains(w) || setops.BitsContain(vDense, w)
		if op == plan.OpIntersect {
			if inV {
				cnt--
			}
		} else if !inV {
			cnt--
		}
	}
	return uint64(cnt), true
}

// leafMember reports u ∈ N(v) through the stored row when available.
func (c *Counter) leafMember(nv []uint32, row []uint64, bm *setops.Bitmap, u uint32) bool {
	if row != nil {
		return setops.BitsContain(row, u)
	}
	if bm != nil {
		return bm.Contains(u)
	}
	return setops.Contains(nv, u)
}

// leafCountSet counts a materialized final-level set within its window,
// excluding used vertices (the generic leaf path).
func (c *Counter) leafCountSet(set []uint32) uint64 {
	a, b := c.window(c.k-1, set)
	cnt := b - a
	for _, u := range c.verts[:c.k-1] {
		if setops.Contains(set[a:b], u) {
			cnt--
		}
	}
	return uint64(cnt)
}

// windowBounds resolves the symmetry-breaking restrictions of the given
// level to the open interval (lo, hi): candidates must be strictly
// greater than lo when hasLo and strictly less than hi when hasHi.
func (c *Counter) windowBounds(level int) (lo, hi uint32, hasLo, hasHi bool) {
	for _, r := range c.pl.Levels[level].Restrictions {
		bound := c.verts[r.Earlier]
		if r.Greater {
			if !hasLo || bound > lo {
				lo, hasLo = bound, true
			}
		} else {
			if !hasHi || bound < hi {
				hi, hasHi = bound, true
			}
		}
	}
	return lo, hi, hasLo, hasHi
}

// window returns the index range of set surviving the symmetry-breaking
// restrictions of the given level, mirroring Engine.window.
func (c *Counter) window(level int, set []uint32) (a, b int) {
	lo, hi, hasLo, hasHi := c.windowBounds(level)
	a, b = 0, len(set)
	if hasLo {
		a = setops.UpperBound(set, lo)
	}
	if hasHi {
		b = setops.LowerBound(set, hi)
	}
	if b < a {
		b = a
	}
	return a, b
}
