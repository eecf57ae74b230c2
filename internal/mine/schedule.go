package mine

import (
	"fmt"
	"slices"

	"fingers/internal/plan"
	"fingers/internal/setops"
)

// step is one grouped set operation of a level's schedule: identical
// updates compute once (paper §3.3), with the sharing resolved ahead of
// time. Both miners run it: Engine.extend executes a level's steps in
// order, one SetOpExec group each, and the Counter runs them over its
// frames.
type step struct {
	// op is plan.OpInit, plan.OpIntersect or plan.OpSubtract.
	op plan.OpKind
	// pending lists the postponed disconnected-ancestor levels whose
	// neighbor lists are anti-subtracted after an init (only for OpInit).
	pending []int
	// src is the slot whose parent-level set the update reads (only for
	// OpIntersect/OpSubtract; it equals targets[0]).
	src int
	// targets are the levels whose candidate slots receive the result.
	targets []int
	// mark is the update's mark slot in the parent frame: updates of one
	// level that read the same parent set share a slot, so the set is
	// marked once for all of them (-1 for OpInit).
	mark int
	// inter is the index of an earlier OpIntersect step of the same level
	// reading the same parent set, or -1. A subtract with such a sibling
	// computes src − N(v) as src − (src ∩ N(v)) from the sibling's result.
	inter int
	// lazy marks a step none of whose targets is the next level's
	// candidate slot: its result only matters below a child, so the
	// counter runs it when the first child is visited, and never for a
	// node without children. Lazy steps follow the eager ones (see
	// buildSchedule).
	lazy bool
	// derive marks a subtract at level k−3 with a sibling intersection
	// whose one target only the leaf level's single update reads, under
	// an unrestricted leaf window, and after which no step of its level
	// reads the same marks. Over an array source the counter never
	// builds its result: it clears the sibling's elements from the
	// source's marks, and the leaf counts against those (see
	// Counter.deriveMarks).
	derive bool
}

// buildSchedule resolves the per-level operation groups statically.
// Which actions of a level share one operation depends only on the
// identity structure of the candidate slots — which operation produced
// each slot's set — and that structure evolves identically down every
// root-to-leaf path (levels are always visited 0, 1, 2, …). Simulating
// the set-ID propagation symbolically once therefore yields the groups of
// every node, in the order their first actions appear.
//
// The Counter runs a node's lazy steps only once it has a child, so they
// must follow the eager ones. plan.Compile emits a level's actions in
// ascending target order, and only a step targeting the next level's
// slot is eager, so that step comes first; a schedule that breaks this
// panics, as one that writes a slot twice does.
func buildSchedule(pl *plan.Plan) [][]step {
	k := pl.K()
	setID := make([]int32, k)
	var nextID int32
	out := make([][]step, k-1)
	for level := 0; level < k-1; level++ {
		type group struct {
			op      plan.OpKind
			pending []int
			srcID   int32
			targets []int
		}
		var groups []group
		findInit := func(pending []int) *group {
			for i := range groups {
				g := &groups[i]
				if g.op != plan.OpInit || len(g.pending) != len(pending) {
					continue
				}
				same := true
				for x := range pending {
					if g.pending[x] != pending[x] {
						same = false
						break
					}
				}
				if same {
					return g
				}
			}
			groups = append(groups, group{op: plan.OpInit, pending: pending})
			return &groups[len(groups)-1]
		}
		findUpdate := func(op plan.OpKind, srcID int32) *group {
			for i := range groups {
				g := &groups[i]
				if g.op == op && g.op != plan.OpInit && g.srcID == srcID {
					return g
				}
			}
			groups = append(groups, group{op: op, srcID: srcID})
			return &groups[len(groups)-1]
		}
		for _, act := range pl.Levels[level].Actions {
			var g *group
			switch act.Op {
			case plan.OpInit:
				g = findInit(act.Pending)
			case plan.OpIntersect, plan.OpSubtract:
				g = findUpdate(act.Op, setID[act.Target])
			default:
				panic(fmt.Sprintf("mine: unexpected op kind %v in schedule", act.Op))
			}
			g.targets = append(g.targets, act.Target)
		}
		seen := make(map[int]bool, k)
		markOf := map[int32]int{}
		for _, g := range groups {
			nextID++
			st := step{op: g.op, pending: g.pending, targets: g.targets, mark: -1, inter: -1}
			if g.op != plan.OpInit {
				st.src = g.targets[0]
				m, ok := markOf[g.srcID]
				if !ok {
					m = len(markOf)
					markOf[g.srcID] = m
				}
				st.mark = m
			}
			// The leaf level's steps all target the last slot, so only
			// inner levels have lazy steps.
			st.lazy = level < k-2 && !slices.Contains(g.targets, level+1)
			if n := len(out[level]); !st.lazy && n > 0 && out[level][n-1].lazy {
				panic(fmt.Sprintf("mine: eager step after a lazy one at level %d", level))
			}
			for _, t := range g.targets {
				// The counter reads update sources from the current frame
				// after copying the parent's slots, which is only the
				// parent's value while each slot is written at most once
				// per level — the invariant the plan compiler maintains.
				if seen[t] {
					panic(fmt.Sprintf("mine: slot %d written twice at level %d", t, level))
				}
				seen[t] = true
				setID[t] = nextID
			}
			out[level] = append(out[level], st)
		}
		steps := out[level]
		for i := range steps {
			if steps[i].op != plan.OpSubtract {
				continue
			}
			for j, prev := range steps[:i] {
				if prev.op == plan.OpIntersect && prev.mark == steps[i].mark {
					steps[i].inter = j
					break
				}
			}
		}
	}
	markDerived(pl, out)
	return out
}

// markDerived sets step.derive on the one step of level k−3 that
// qualifies, if any (see step.derive).
func markDerived(pl *plan.Plan, sched [][]step) {
	k := pl.K()
	if k < 4 || len(pl.Levels[k-1].Restrictions) > 0 {
		return
	}
	leaf := sched[k-2]
	if len(leaf) != 1 || leaf[0].op == plan.OpInit {
		return
	}
	steps := sched[k-3]
	for i := range steps {
		st := &steps[i]
		if st.op != plan.OpSubtract || st.inter < 0 || !slices.Equal(st.targets, []int{leaf[0].src}) {
			continue
		}
		st.derive = !slices.ContainsFunc(steps[i+1:], func(later step) bool { return later.mark == st.mark })
	}
}

// adjacency is what a plan fixes about whether a used vertex u_i is a
// neighbour of u_{k−2}, the vertex whose list the leaf update reads.
type adjacency uint8

const (
	adjUnknown adjacency = iota // the plan leaves it open: look it up
	adjYes
	adjNo
)

// leafAdj holds, per level i ≤ k−2, what the plan fixes about
// u_i ∈ N(u_{k−2}). Both leaf counters read it to skip the membership
// search for every used vertex in the leaf window whose answer the plan
// already gives.
type leafAdj []adjacency

// leafAdjacency builds the plan's leafAdj. u_{k−2} was drawn from
// S_{k−2}, which the plan built from N(u_i) by initialization or
// intersection (adjacent) or by anti-subtraction or subtraction (not
// adjacent); u_{k−2} is not its own neighbour, since graphs hold no
// self-loops. Only a level that S_{k−2} never read, an edge-induced
// non-edge, stays unknown.
func leafAdjacency(pl *plan.Plan) leafAdj {
	t := pl.K() - 2
	adj := make(leafAdj, t+1)
	adj[t] = adjNo
	for i := 0; i < t; i++ {
		for _, act := range pl.Levels[i].Actions {
			if act.Target != t {
				continue
			}
			switch act.Op {
			case plan.OpInit, plan.OpIntersect:
				adj[i] = adjYes
			case plan.OpSubtract:
				adj[i] = adjNo
			}
			for _, m := range act.Pending {
				adj[m] = adjNo
			}
		}
	}
	return adj
}

// member reports u_i ∈ N(v) for v = u_{k−2}: from the plan when it fixes
// it, otherwise through v's dense row when it has one, and otherwise by
// binary search in N(v).
func (a leafAdj) member(i int, nv []uint32, row []uint64, u uint32) bool {
	switch {
	case a[i] != adjUnknown:
		return a[i] == adjYes
	case row != nil:
		return setops.BitsContain(row, u)
	default:
		return setops.Contains(nv, u)
	}
}

// countsLeaf reports whether level k−2 of the schedule runs one lone
// update, whose result is the leaf level's candidate set. Both miners
// then count that set inside the leaf window instead of building it.
func countsLeaf(sched [][]step) bool {
	k := len(sched) + 1
	return k > 2 && len(sched[k-2]) == 1 && sched[k-2][0].op != plan.OpInit
}

// countLeafWindow counts op(src, N(v)), an intersection when intersect
// and a subtraction otherwise, inside the leaf window src[a:b], less the
// used vertices it holds, without building it. row is v's dense row or
// nil; marks returns the bitset the caller keeps src marked in, marking
// it if needed. The kernel, which stats counts, is v's dense row probed
// with the window, the window galloped through an N(v) many times
// longer, or N(v) clipped to the window and probed against src's marks.
// A subtraction counts the window less that intersection. A used vertex
// in the window's range is found in src with a bit test when the kernel
// marked it and a binary search otherwise; fixed then gives its
// adjacency to v.
func countLeafWindow(intersect bool, src []uint32, a, b int, nv []uint32, row []uint64, used []uint32, fixed leafAdj, marks func() []uint64, stats *KernelStats) uint64 {
	win := src[a:b]
	if len(win) == 0 {
		return 0
	}
	var inter int
	var marked []uint64
	if row != nil {
		stats.CountBits++
		inter = setops.IntersectCountBits(win, row)
	} else {
		// Clip N(v) to win's value range where the window cut src: there
		// the marked src holds exactly win.
		clip := nv
		if a > 0 {
			clip = clip[setops.LowerBound(clip, win[0]):]
		}
		if b < len(src) {
			clip = clip[:setops.UpperBound(clip, win[len(win)-1])]
		}
		if len(clip) >= setops.GallopSkewThreshold*len(win) {
			stats.CountGallop++
			inter = setops.IntersectCountGalloping(win, clip)
		} else {
			marked = marks()
			stats.CountProbe++
			inter = setops.IntersectCountBits(clip, marked)
		}
	}
	cnt := inter
	if !intersect {
		cnt = len(win) - inter
	}
	first, last := win[0], win[len(win)-1]
	for i, u := range used {
		if u < first || u > last {
			continue
		}
		if marked != nil {
			if !setops.BitsContain(marked, u) {
				continue
			}
		} else if !setops.Contains(win, u) {
			continue
		}
		if fixed.member(i, nv, row, u) == intersect {
			cnt--
		}
	}
	return uint64(cnt)
}

// windowBounds resolves a level's symmetry-breaking restrictions against
// the chosen vertices verts to the open interval (lo, hi): candidates
// must be strictly greater than lo when hasLo and strictly less than hi
// when hasHi.
func windowBounds(rs []plan.Restriction, verts []uint32) (lo, hi uint32, hasLo, hasHi bool) {
	for _, r := range rs {
		bound := verts[r.Earlier]
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

// window returns the index range [a, b) of the sorted set inside the
// open window (lo, hi).
func window(set []uint32, lo, hi uint32, hasLo, hasHi bool) (a, b int) {
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
