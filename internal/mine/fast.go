package mine

import (
	"math/bits"

	"fingers/internal/graph"
	"fingers/internal/plan"
	"fingers/internal/setops"
)

// Counter is the adaptive software miner: it walks the same search tree
// as Engine but is built for CPU throughput rather than hardware-model
// fidelity. Six things distinguish it (and are why Count/CountParallel
// route through it):
//
//   - adaptive kernel dispatch: every set operation picks its kernel per
//     call — probing v's dense row (graph.HybridAdj) with the candidate
//     set, galloping the candidate set through a much longer N(v), or
//     mark-and-probe;
//   - word-parallel candidate sets: when both operands have bitset rows
//     (a dense-tier N(v) and a candidate set held as a bitset), the
//     result is computed with word-wise AND/AND-NOT over the words its
//     readers' windows can reach, and kept as a bitset when its popcount
//     says so (setops.KeepWords) — otherwise decoded to an array. Leaves
//     over a bitset count with popcount(S & N(v) & window), and the
//     children of a bitset node count theirs in its own word-wise loop;
//   - mark-and-probe: every child of a search-tree node updates the
//     node's candidate sets with its own neighbor list, so the first
//     child to need a set marks it in a full-universe bitset, and each
//     child then walks only its neighbor list against the marks instead
//     of merging the set again;
//   - lean schedules: a subtract reuses its sibling's intersection of the
//     same set (S − N = S − (S ∩ N)), and steps whose results only matter
//     below a child wait until the node's first child is found. A
//     subtract only the leaf reads is not built at all: its source's
//     marks, with the sibling intersection's bits cleared, are the set
//     (derived marks, see deriveMarks);
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
	leaf  leafAdj // what the plan fixes about used vertices' adjacency to u_{k−2}

	verts  []uint32
	frames []frame
	nwords int // words of a full-universe bitset
	stats  KernelStats
	// dirty is set while Root runs; finding it set on entry means an
	// earlier Root panicked and may have left sets marked.
	dirty bool
	// countedLeaf is countsLeaf(sched): level k−2's lone update is
	// counted, not built.
	countedLeaf bool
	// leafShared holds the leaf level's restrictions on u_0 … u_{k−3},
	// which all children of a level-(k−3) node share; ownLo and ownHi
	// report a restriction on u_{k−2}, the bound each child sets itself
	// (u_{k−1} > u_{k−2} and u_{k−1} < u_{k−2}).
	leafShared   []plan.Restriction
	ownLo, ownHi bool
	// lowLevels lists the levels 0 … k−3; inLeaf is sharedLeaf's buffer
	// for those of them whose vertex lies in the leaf's source.
	lowLevels, inLeaf []int
}

// cset is one slot's candidate set, held in one of two formats. As an
// array (words == nil) arr holds its elements in increasing order. As a
// full-universe bitset its elements are the set bits of words, but only
// the word range its producing step wrote (see stepWords) is valid; the
// other words are stale. That range covers the symmetry-breaking window
// of every level that reads the set, so a reader that stays inside its
// window never reads a stale word. A slot aliasing a dense vertex's
// neighbor list has both formats: arr is the list, words the row.
type cset struct {
	arr   []uint32
	words []uint64
}

// hasArr reports whether s.arr holds the set.
func (s *cset) hasArr() bool { return s.words == nil || s.arr != nil }

// frame is one level's scratch arena.
type frame struct {
	// sets[j] is the candidate set for slot j after this level's steps,
	// pointing into a buf below, a shallower frame's buf, or graph
	// storage. Reading sets[st.src] before the step writes its targets
	// yields the parent's value (each slot is written once per level).
	sets []cset
	// bufs[i] is step i's reusable result buffer; capacity only grows.
	bufs [][]uint32
	// words[i] is step i's full-universe bitset result buffer, allocated
	// on first use. Every write covers the result's whole word range, so
	// the buffers never need clearing, even after a panic.
	words [][]uint64
	// scratch holds the intersection a mark-probed subtract removes when
	// no sibling step computed it.
	scratch []uint32

	// marks[m] is the full-universe bitset of mark slot m (see
	// step.mark), allocated on first use; marked[m] is the set marked in
	// it, or nil. Marks are set lazily by the first child that probes
	// and cleared when the node's children are done.
	marks  [][]uint64
	marked [][]uint32

	// derived is this node's derived step result, if its step ran.
	derived derived
}

// derived is the result S = src − cut of a derive step (see
// step.derive), held as src's marks in the parent frame with cut's bits
// cleared. It lives in the frame rather than in a cset, because descend
// copies every cset at every node.
type derived struct {
	marks []uint64 // nil when no derived result is live
	src   []uint32
	cut   []uint32 // the sibling intersection, cut ⊆ src
}

// KernelStats counts kernel-dispatch decisions, split between
// materializing operations and leaf counting. Merge only counts the
// postponed anti-subtractions of OpInit steps. Bits/CountBits probe a
// dense row with an array's elements. Probe/CountProbe walk a neighbor
// list against the marked candidate set (or a bitset one); Subset
// subtracts a sibling step's intersection. Word is a word-wise
// AND/AND-NOT of two bitsets, CountWord a leaf popcount of a bitset
// candidate set against a dense row. Derive clears a sibling
// intersection from its source's marks instead of subtracting it (see
// deriveMarks). Marks counts the sets marked and Decode the word results
// decoded to arrays.
type KernelStats struct {
	Merge, Gallop, Bits, Probe, Subset, Word, Derive uint64
	CountGallop, CountBits, CountProbe, CountWord    uint64
	Marks, Decode                                    uint64
}

// NewCounter returns a reusable adaptive miner for the plan on g, using
// the dense rows of the graph's cached hybrid view (so parallel workers
// never duplicate them) and the CSR arrays for every other list.
func NewCounter(g *graph.Graph, pl *plan.Plan) *Counter {
	return newCounter(g, pl, g.Hybrid())
}

// newCounter returns a Counter whose kernels read dense rows from adj,
// which tests build at a forced hub threshold.
func newCounter(g *graph.Graph, pl *plan.Plan, adj *graph.HybridAdj) *Counter {
	c := &Counter{
		g:     g,
		pl:    pl,
		sched: buildSchedule(pl),
		adj:   adj,
		k:     pl.K(),
		leaf:  leafAdjacency(pl),
	}
	c.countedLeaf = countsLeaf(c.sched)
	for _, r := range pl.Levels[c.k-1].Restrictions {
		switch {
		case r.Earlier < c.k-2:
			c.leafShared = append(c.leafShared, r)
		case r.Greater:
			c.ownLo = true
		default:
			c.ownHi = true
		}
	}
	c.lowLevels = make([]int, max(c.k-2, 0))
	for i := range c.lowLevels {
		c.lowLevels[i] = i
	}
	c.inLeaf = make([]int, 0, len(c.lowLevels))
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
	c.nwords = (g.NumVertices() + 63) / 64
	for level := range c.frames {
		f := &c.frames[level]
		f.sets = make([]cset, c.k)
		f.bufs = make([][]uint32, len(c.sched[level]))
		f.words = make([][]uint64, len(c.sched[level]))
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

// clearMarks zeroes every mark bitset and drops every derived result,
// recovering from a Root that panicked with sets still marked.
func (c *Counter) clearMarks() {
	for level := range c.frames {
		f := &c.frames[level]
		for m := range f.marks {
			clear(f.marks[m])
			f.marked[m] = nil
		}
		f.derived = derived{}
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

// unmark clears every set the node's children marked in f, and gives
// back the bits a derive step of the node cleared from its parent's
// marks, so that the node's siblings and the parent's unmark see the
// source marked whole.
func (f *frame) unmark() {
	if d := &f.derived; d.marks != nil {
		setops.Mark(d.marks, d.cut)
		*d = derived{}
	}
	for m, s := range f.marked {
		if s != nil {
			setops.Unmark(f.marks[m], s)
			f.marked[m] = nil
		}
	}
}

func (c *Counter) descend(level int, v uint32) uint64 {
	c.verts[level] = v
	steps := c.sched[level]
	if level == c.k-2 && c.countedLeaf {
		// Leaf fast path: a lone update step materializing only the final
		// slot can be counted from the parent's slot without writing the
		// result, or even setting up this level's frame.
		p := &c.frames[level-1]
		if p.derived.marks != nil {
			return c.leafCountDerived(steps[0].op, &p.derived, v)
		}
		return c.leafCountUpdate(&steps[0], &p.sets[steps[0].src], v)
	}
	f := &c.frames[level]
	if level == 0 {
		clear(f.sets)
	} else {
		copy(f.sets, c.frames[level-1].sets)
	}
	nv := c.g.Neighbors(v)

	if level == c.k-2 {
		c.applySteps(level, f, steps, 0, nv, v)
		return c.leafCountSet(&f.sets[c.k-1])
	}

	eager := c.eager[level]
	c.applySteps(level, f, steps[:eager], 0, nv, v)
	set := &f.sets[level+1] // lazy steps never write this slot
	lo, hi, hasLo, hasHi := windowBounds(c.pl.Levels[level+1].Restrictions, c.verts)
	used := c.verts[:level+1]
	var total uint64
	if set.hasArr() {
		a, b := window(set.arr, lo, hi, hasLo, hasHi)
		for _, w := range set.arr[a:b] {
			if containsVert(used, w) {
				continue
			}
			if eager < len(steps) {
				c.applySteps(level, f, steps, eager, nv, v)
				eager = len(steps)
			}
			total += c.descend(level+1, w)
		}
	} else {
		// Walk the bitset word by word, with the bits outside the window
		// and those of used vertices cleared. The children of a
		// level-(k−3) node whose leaf counts a bitset count their leaves
		// here instead of descending (see sharedLeaf).
		first, end := 0, c.nwords<<6
		if hasLo {
			first = int(lo) + 1
		}
		if hasHi {
			end = int(hi)
		}
		undecided := level == c.k-3 && c.countedLeaf
		var sl sharedLeaf
		for i := first >> 6; i<<6 < end; i++ {
			word := set.words[i]
			if i == first>>6 {
				word &= ^uint64(0) << (first & 63)
			}
			if rest := end - i<<6; rest < 64 {
				word &= 1<<rest - 1
			}
			for _, u := range used {
				if int(u>>6) == i {
					word &^= 1 << (u & 63)
				}
			}
			for ; word != 0; word &= word - 1 {
				w := uint32(i<<6 + bits.TrailingZeros64(word))
				if eager < len(steps) {
					c.applySteps(level, f, steps, eager, nv, v)
					eager = len(steps)
				}
				if undecided {
					sl = c.sharedLeaf(f)
					undecided = false
				}
				if sl.s == nil {
					total += c.descend(level+1, w)
					continue
				}
				// The child's own bound: the leaf's restriction on u_{k−2}.
				clo, chi, cHasLo, cHasHi := sl.lo, sl.hi, sl.hasLo, sl.hasHi
				if c.ownLo && (!cHasLo || w > clo) {
					clo, cHasLo = w, true
				}
				if c.ownHi && (!cHasHi || w < chi) {
					chi, cHasHi = w, true
				}
				total += c.leafCountWords(sl.op, sl.s, w, clo, chi, cHasLo, cHasHi, sl.in)
			}
		}
	}
	f.unmark()
	return total
}

// applySteps executes steps[from:] of one level's schedule into the
// frame's arenas.
func (c *Counter) applySteps(level int, f *frame, steps []step, from int, nv []uint32, v uint32) {
	for si := from; si < len(steps); si++ {
		st := &steps[si]
		var res cset
		// src is the parent's value: targets are not yet written.
		switch src := &f.sets[st.src]; {
		case st.op == plan.OpInit:
			res = c.initSet(f, si, st, nv, v)
		case st.derive && src.words == nil:
			// The target holds nothing: the leaf reads f.derived.
			c.deriveMarks(level, f, st, src.arr)
		case src.words != nil:
			res = c.updateWords(level, f, si, st, src, nv, v)
		default:
			f.bufs[si] = c.updateInto(level, f, st, f.bufs[si][:0], src, nv, v)
			res = cset{arr: f.bufs[si]}
		}
		for _, t := range st.targets {
			f.sets[t] = res
		}
	}
}

// initSet computes the OpInit step st, N(v) minus the neighbor lists of
// its postponed ancestors (the anti-subtraction of §2.1). With no
// ancestors the slot aliases the read-only neighbor list and, for a
// dense v, its row, costing nothing.
func (c *Counter) initSet(f *frame, si int, st *step, nv []uint32, v uint32) cset {
	if len(st.pending) == 0 {
		return cset{arr: nv, words: c.adj.DenseRow(v)}
	}
	buf := c.subtractNeighborsInto(f.bufs[si][:0], nv, c.verts[st.pending[0]])
	for _, m := range st.pending[1:] {
		buf = c.subtractNeighborsInPlace(buf, c.verts[m])
	}
	f.bufs[si] = buf
	return cset{arr: buf}
}

// stepWords returns the word range [lo, hi) a bitset result of st needs:
// the union, over st's targets, of the words the target level's window
// can reach given the restrictions already decidable at this level.
// Readers apply their full windows, so the words outside never matter.
// A step reading a bitset source needs no more than the source's range:
// its targets are among the source's, and deeper levels know more
// restrictions.
func (c *Counter) stepWords(level int, st *step) (lo, hi int) {
	lo, hi = c.nwords, 0
	for _, t := range st.targets {
		tlo, thi := 0, c.nwords
		for _, r := range c.pl.Levels[t].Restrictions {
			if r.Earlier > level {
				continue
			}
			w := int(c.verts[r.Earlier] >> 6)
			if r.Greater {
				tlo = max(tlo, w)
			} else {
				thi = min(thi, w+1)
			}
		}
		lo, hi = min(lo, tlo), max(hi, thi)
	}
	return lo, max(lo, hi)
}

// wordBuf returns step si's bitset result buffer, allocating it on first
// use.
func (f *frame) wordBuf(si, words int) []uint64 {
	if f.words[si] == nil {
		f.words[si] = make([]uint64, words)
	}
	return f.words[si]
}

// wordResult keeps the word result dst[lo:hi] of step si, holding card
// elements, as a bitset when setops.KeepWords approves and decodes it
// into the step's array buffer otherwise.
func (c *Counter) wordResult(f *frame, si int, dst []uint64, lo, hi, card int) cset {
	if setops.KeepWords(card, hi-lo) {
		return cset{words: dst}
	}
	c.stats.Decode++
	buf := setops.DecodeWordsInto(f.bufs[si][:0], dst, lo, hi)
	f.bufs[si] = buf
	return cset{arr: buf}
}

// updateWords computes the update step st, op(src, N(v)), for a bitset
// src. It meets a dense row word-wise; a bitset with no array form meets
// any other N(v) by probing the list against its words. A slot aliasing
// a dense vertex's list otherwise runs on its array (updateInto).
func (c *Counter) updateWords(level int, f *frame, si int, st *step, src *cset, nv []uint32, v uint32) cset {
	if row := c.adj.DenseRow(v); row != nil {
		lo, hi := c.stepWords(level, st)
		dst := f.wordBuf(si, c.nwords)
		c.stats.Word++
		var card int
		if st.op == plan.OpIntersect {
			card = setops.AndWords(dst, src.words, row, lo, hi)
		} else {
			card = setops.AndNotWords(dst, src.words, row, lo, hi)
		}
		return c.wordResult(f, si, dst, lo, hi, card)
	}
	if src.hasArr() {
		f.bufs[si] = c.updateInto(level, f, st, f.bufs[si][:0], src, nv, v)
		return cset{arr: f.bufs[si]}
	}
	lo, hi := c.stepWords(level, st)
	nv = nv[setops.LowerBound(nv, uint32(lo)<<6):]
	nv = nv[:setops.LowerBound(nv, uint32(hi)<<6)]
	c.stats.Probe++
	if st.op == plan.OpIntersect {
		f.bufs[si] = setops.IntersectBitsInto(f.bufs[si][:0], nv, src.words)
		return cset{arr: f.bufs[si]}
	}
	dst := f.wordBuf(si, c.nwords)
	copy(dst[lo:hi], src.words[lo:hi])
	setops.ClearBits(dst, nv)
	return c.wordResult(f, si, dst, lo, hi, setops.CountWords(dst, lo, hi))
}

// updateInto computes st's op(src, N(v)) into dst from src's array form
// with format-aware dispatch: a subtract whose sibling step already
// intersected the same source removes that intersection; otherwise v's
// dense row is probed with src's elements. Two arrays gallop src's
// elements through an N(v) many times longer, and otherwise walk N(v)
// against the marked src — or against src's row, when it aliases a
// dense vertex's list, which needs no marking.
func (c *Counter) updateInto(level int, f *frame, st *step, dst []uint32, src *cset, nv []uint32, v uint32) []uint32 {
	if st.inter >= 0 {
		c.stats.Subset++
		return setops.SubtractSubsetInto(dst, src.arr, f.bufs[st.inter])
	}
	if len(src.arr) == 0 {
		return dst
	}
	if row := c.adj.DenseRow(v); row != nil {
		c.stats.Bits++
		if st.op == plan.OpIntersect {
			return setops.IntersectBitsInto(dst, src.arr, row)
		}
		return setops.SubtractBitsInto(dst, src.arr, row)
	}
	marks := src.words
	if marks == nil {
		if len(nv) >= setops.GallopSkewThreshold*len(src.arr) {
			c.stats.Gallop++
			if st.op == plan.OpIntersect {
				return setops.IntersectGallopingInto(dst, src.arr, nv)
			}
			return setops.SubtractGallopingInto(dst, src.arr, nv)
		}
		marks = c.marksFor(level, st, src.arr)
	}
	c.stats.Probe++
	if st.op == plan.OpIntersect {
		return setops.IntersectBitsInto(dst, nv, marks)
	}
	f.scratch = setops.IntersectBitsInto(f.scratch[:0], nv, marks)
	return setops.SubtractSubsetInto(dst, src.arr, f.scratch)
}

// deriveMarks computes the derive step st, src − N(v), as
// src − (src ∩ N(v)) without building it: it clears the sibling
// intersection's bits from src's marks in the parent frame and records
// the result in f.derived, for the leaf to count against. f.unmark sets
// the bits again when the node is done. src must be an array: a dense
// row is shared graph storage and is never cleared.
func (c *Counter) deriveMarks(level int, f *frame, st *step, src []uint32) {
	cut := f.bufs[st.inter]
	marks := c.marksFor(level, st, src)
	c.stats.Derive++
	setops.ClearBits(marks, cut)
	f.derived = derived{marks: marks, src: src, cut: cut}
}

// subtractNeighborsInto computes a − N(anc) into dst (the postponed
// anti-subtraction of §2.1, candidate side first).
func (c *Counter) subtractNeighborsInto(dst, a []uint32, anc uint32) []uint32 {
	if row := c.adj.DenseRow(anc); row != nil {
		c.stats.Bits++
		return setops.SubtractBitsInto(dst, a, row)
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
	if row := c.adj.DenseRow(anc); row != nil {
		c.stats.Bits++
		return setops.SubtractBitsInPlace(a, row)
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
func (c *Counter) leafCountUpdate(st *step, src *cset, v uint32) uint64 {
	lo, hi, hasLo, hasHi := windowBounds(c.pl.Levels[c.k-1].Restrictions, c.verts)
	if src.words != nil {
		return c.leafCountWords(st.op, src.words, v, lo, hi, hasLo, hasHi, c.lowLevels)
	}
	a, b := window(src.arr, lo, hi, hasLo, hasHi)
	if a == b {
		return 0 // without fetching N(v) and v's row, a cache miss per leaf
	}
	marks := func() []uint64 { return c.marksFor(c.k-2, st, src.arr) }
	return countLeafWindow(st.op == plan.OpIntersect, src.arr, a, b, c.g.Neighbors(v), c.adj.DenseRow(v),
		c.verts[:c.k-1], c.leaf, marks, &c.stats)
}

// leafCountDerived counts op(S, N(v)) for a derived result S = src − cut
// (see deriveMarks); derive steps only feed unrestricted leaf windows.
// |S ∩ N(v)| is N(v) probed against S's marks, or, when N(v) is a dense
// row longer than src and cut together, |src ∩ N(v)| − |cut ∩ N(v)|
// through the row. Used vertices are excluded with bit tests.
func (c *Counter) leafCountDerived(op plan.OpKind, d *derived, v uint32) uint64 {
	nv := c.g.Neighbors(v)
	row := c.adj.DenseRow(v)
	var inter int
	if row != nil && len(d.src)+len(d.cut) < len(nv) {
		c.stats.CountBits++
		inter = setops.IntersectCountBits(d.src, row) - setops.IntersectCountBits(d.cut, row)
	} else {
		c.stats.CountProbe++
		inter = setops.IntersectCountBits(nv, d.marks)
	}
	cnt := inter
	if op != plan.OpIntersect {
		cnt = len(d.src) - len(d.cut) - inter
	}
	for i, u := range c.verts[:c.k-1] {
		if setops.BitsContain(d.marks, u) && c.leaf.member(i, nv, row, u) == (op == plan.OpIntersect) {
			cnt--
		}
	}
	return uint64(cnt)
}

// sharedLeaf is what the children of one level-(k−3) node share when
// the leaf below each counts op(S, N(u_{k−2})) for the same bitset S:
// the leaf window's bounds on u_0 … u_{k−3}, and the levels below k−2
// whose vertex lies in S inside them. s is nil when the children
// descend one by one instead.
type sharedLeaf struct {
	op           plan.OpKind
	s            []uint64
	lo, hi       uint32
	hasLo, hasHi bool
	in           []int
}

// sharedLeaf resolves, once per level-(k−3) node f that has a child and
// has run all its steps, what its children's leaves share. A leaf over
// an array source or a derived result gets the zero sharedLeaf: its
// children take the per-child path (leafCountUpdate, leafCountDerived).
func (c *Counter) sharedLeaf(f *frame) sharedLeaf {
	st := &c.sched[c.k-2][0]
	s := f.sets[st.src].words
	if s == nil || f.derived.marks != nil {
		return sharedLeaf{}
	}
	sl := sharedLeaf{op: st.op, s: s, in: c.inLeaf[:0]}
	sl.lo, sl.hi, sl.hasLo, sl.hasHi = windowBounds(c.leafShared, c.verts)
	for _, i := range c.lowLevels {
		// The window test comes first: S's words are valid only inside
		// its readers' windows.
		if u := c.verts[i]; !(sl.hasLo && u <= sl.lo || sl.hasHi && u >= sl.hi) && setops.BitsContain(s, u) {
			sl.in = append(sl.in, i)
		}
	}
	return sl
}

// leafCountWords counts op(S, N(v)) for a bitset candidate set S inside
// the leaf window (lo, hi): popcount(S & N(v) & window) against v's
// dense row, or N(v)'s window-clipped elements probed against S's
// words. in lists the levels i < k−2 whose vertex may lie in S; those
// in S inside the window, and v itself, are excluded by their adjacency
// to v.
func (c *Counter) leafCountWords(op plan.OpKind, s []uint64, v uint32, lo, hi uint32, hasLo, hasHi bool, in []int) uint64 {
	row := c.adj.DenseRow(v)
	var nv []uint32
	var inter int
	if row != nil {
		c.stats.CountWord++
		inter = setops.IntersectBitsCountBounded(s, row, lo, hi, hasLo, hasHi)
	} else {
		nv = c.g.Neighbors(v)
		c.stats.CountProbe++
		a, b := window(nv, lo, hi, hasLo, hasHi)
		inter = setops.IntersectCountBits(nv[a:b], s)
	}
	intersect := op == plan.OpIntersect
	cnt := inter
	if !intersect {
		cnt = setops.CountBitsBounded(s, lo, hi, hasLo, hasHi) - inter
	}
	for _, i := range in {
		u := c.verts[i]
		if hasLo && u <= lo || hasHi && u >= hi || !setops.BitsContain(s, u) {
			continue
		}
		if c.leaf.member(i, nv, row, u) == intersect {
			cnt--
		}
	}
	// v = u_{k−2} is no neighbour of itself: a subtraction keeps it,
	// and must drop it.
	if !intersect && !(hasLo && v <= lo || hasHi && v >= hi) && setops.BitsContain(s, v) {
		cnt--
	}
	return uint64(cnt)
}

// leafCountSet counts a materialized final-level set within its window,
// excluding used vertices (the generic leaf path).
func (c *Counter) leafCountSet(s *cset) uint64 {
	lo, hi, hasLo, hasHi := windowBounds(c.pl.Levels[c.k-1].Restrictions, c.verts)
	if s.hasArr() {
		a, b := window(s.arr, lo, hi, hasLo, hasHi)
		cnt := b - a
		for _, u := range c.verts[:c.k-1] {
			if setops.Contains(s.arr[a:b], u) {
				cnt--
			}
		}
		return uint64(cnt)
	}
	cnt := setops.CountBitsBounded(s.words, lo, hi, hasLo, hasHi)
	for _, u := range c.verts[:c.k-1] {
		if !(hasLo && u <= lo || hasHi && u >= hi) && setops.BitsContain(s.words, u) {
			cnt--
		}
	}
	return uint64(cnt)
}
