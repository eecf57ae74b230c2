package mine

import (
	"cmp"
	"fmt"
	"slices"

	"fingers/internal/plan"
)

// step is one grouped set operation of a level's schedule: the same
// common-subexpression sharing Engine.extend performs dynamically
// (identical updates compute once, paper §3.3), resolved ahead of time.
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
	// node without children. Lazy steps follow the eager ones.
	lazy bool
}

// buildSchedule resolves the per-level operation groups statically. The
// grouping Engine.extend computes per node depends only on the identity
// structure of the candidate slots — which operation produced each slot's
// set — and that structure evolves identically down every root-to-leaf
// path (levels are always visited 0, 1, 2, …). Simulating the set-ID
// propagation symbolically once therefore yields the exact groups the
// engine would form at every node, letting the hot loop skip the
// per-task grouping work entirely.
//
// Within a level the steps are independent — each reads only its own
// targets' parent values — so they are reordered eager-first.
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
		slices.SortStableFunc(steps, func(a, b step) int {
			return cmp.Compare(btoi(a.lazy), btoi(b.lazy))
		})
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
	return out
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
