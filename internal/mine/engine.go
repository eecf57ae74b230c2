// Package mine executes compiled plans on input graphs. It provides the
// software reference miner (the correctness oracle and CPU baseline), a
// brute-force enumerator for validation, and — via Engine — the
// task-granular tree walk that both accelerator timing models drive:
// each Extend call is exactly one "task" in the paper's sense (§4, "the
// work to extend a new vertex to the current partial embedding"),
// reporting the distinct set operations and neighbor-list fetches the
// hardware would perform.
package mine

import (
	"fmt"
	"slices"

	"fingers/internal/graph"
	"fingers/internal/plan"
	"fingers/internal/setops"
)

// SetOpExec describes one distinct set operation within a task, after
// common-subexpression sharing (identical updates are computed once,
// paper §3.3).
type SetOpExec struct {
	// Kind is the set operation executed by the compute units.
	Kind setops.Op
	// Short is the partial candidate set input (the short set, §3.4).
	Short []uint32
	// Long is the neighbor-list input (the long set).
	Long []uint32
	// LongVertex is the graph vertex whose neighbor list is Long, for
	// memory-traffic accounting.
	LongVertex uint32
	// Result is the operation's output, except for the one update of a
	// task at level K−2 whose result is the leaf level's candidate set:
	// the engine counts that set inside the leaf window instead of
	// building it (see Engine.LeafCount), and Result is nil. Kind, Short,
	// Long and LongVertex describe the operation as the hardware performs
	// it either way.
	Result []uint32
}

// TaskInfo reports what one task did, for the timing models. Its slices
// are views into engine-owned scratch that the next Start/Extend call on
// the same engine reuses: consume (or copy) a TaskInfo before issuing the
// engine's next task.
type TaskInfo struct {
	// Ops are the distinct set operations, in dependency order.
	Ops []SetOpExec
	// FetchVertices are the distinct vertices whose neighbor lists the
	// task reads: the new vertex first, then any postponed ancestors.
	FetchVertices []uint32
}

// Node is a search-tree node: a partial embedding with the candidate sets
// materialized so far. Set slices are shared structurally downward — a
// child's sets alias its ancestors' result buffers — so a Node may be
// kept on a stack while siblings are explored (the accelerators'
// pseudo-DFS needs this). Nodes come from a per-engine pool: callers that
// hold many nodes (the PE models) hand exhausted ones back with Release,
// strictly children before parents; callers that never Release (the
// oracle walks) simply allocate fresh nodes, as before.
type Node struct {
	// Level is the index of the deepest chosen vertex (len(Verts)-1).
	Level int
	// Verts holds the chosen vertices for levels 0..Level.
	Verts []uint32
	// sets[j] is the materialized partial candidate set S_j(Level) for
	// j > Level; nil when not yet started. On a counted node (see
	// counted) only the last slot is set, and it holds the leaf update's
	// source.
	sets [][]uint32
	// setID[j] identifies the operation that produced sets[j]; equal IDs
	// mean shared storage (used for common-subexpression detection). IDs
	// are never reused within an engine, so they also key its marks.
	setID []int64
	// bufs are the result arenas of the extend that produced this node
	// (one per set operation); capacity survives pooling.
	bufs [][]uint32
	nbuf int
	// counted marks a level K−2 node whose leaf update was counted, not
	// built: leafCount holds its count, and leaf is the buffer Candidates
	// builds the leaf set into on demand.
	counted   bool
	leafCount uint64
	leaf      []uint32
}

// claimBuf hands out the node's next result arena, empty.
func (n *Node) claimBuf() []uint32 {
	if n.nbuf == len(n.bufs) {
		n.bufs = append(n.bufs, nil)
	}
	return n.bufs[n.nbuf][:0]
}

// storeBuf records the claimed arena's grown backing for reuse.
func (n *Node) storeBuf(b []uint32) {
	n.bufs[n.nbuf] = b
	n.nbuf++
}

// Engine walks one plan's search tree on one graph. An Engine is not safe
// for concurrent use; create one per worker goroutine.
//
// The engine dispatches each set operation adaptively, as the software
// miner does: a dense hub row is probed with the source's elements, a
// neighbor list many times longer than the source is galloped through,
// a subtraction whose source the same task already intersected with
// N(v) removes that intersection, and everything else probes N(v)
// against the source's marks (mark-and-probe, setops/mark.go). The
// kernels differ per call but the set algebra does not, so results,
// TaskInfo geometry, and therefore modeled timing are bit-identical to
// the plain merge walk.
//
// A task runs its level's steps of the plan's static schedule
// (buildSchedule), the one the Counter runs: each step is one SetOpExec
// group, in schedule order. When level K−2 runs one intersect or
// subtract, whose result is the leaf level's candidate set, a task at
// that level counts the result inside the leaf window instead of
// building it, as the Counter does: LeafCount reads the count, and
// Candidates builds the set only when asked.
type Engine struct {
	G      *graph.Graph
	Plan   *plan.Plan
	nextID int64

	adj   *graph.HybridAdj // read for dense rows only
	root  *Node            // persistent level -1 parent for Start
	sched [][]step         // the plan's static schedule (buildSchedule)

	// countedLeaf is countsLeaf(sched): a level K−2 task counts its lone
	// update instead of building it.
	countedLeaf bool
	leafAdj     leafAdj     // what the plan fixes about used vertices' adjacency to u_{K−2}
	stats       KernelStats // the counted leaves' kernels (only the Count fields move)

	free []*Node // node pool

	// The marked-source slot: marks is a full-universe bitset (allocated
	// on first use) holding the set with ID markID (0 = empty slot), and
	// marked is a private copy of that set. Sibling tasks read the same
	// source set, so one marking serves every sibling until another
	// source evicts it. The copy is what eviction unmarks: the source
	// node may have been released and its buffer refilled since.
	markID int64
	marks  []uint64
	marked []uint32
	probe  []uint32 // src ∩ N(v) scratch for probed subtractions

	// Per-task scratch backing TaskInfo; valid until the next task.
	ops   []SetOpExec
	fetch []uint32
}

// NewEngine returns an engine for the plan on g.
func NewEngine(g *graph.Graph, pl *plan.Plan) *Engine {
	e := &Engine{G: g, Plan: pl, adj: g.Hybrid(), sched: buildSchedule(pl), leafAdj: leafAdjacency(pl)}
	e.countedLeaf = countsLeaf(e.sched)
	k := pl.K()
	e.root = &Node{
		Level: -1,
		Verts: make([]uint32, 0, k),
		sets:  make([][]uint32, k),
		setID: make([]int64, k),
	}
	return e
}

func (e *Engine) newID() int64 {
	e.nextID++
	return e.nextID
}

// newNode takes a node from the pool, or allocates one.
func (e *Engine) newNode() *Node {
	if n := len(e.free); n > 0 {
		nd := e.free[n-1]
		e.free = e.free[:n-1]
		return nd
	}
	k := e.Plan.K()
	return &Node{
		Verts: make([]uint32, 0, k),
		sets:  make([][]uint32, k),
		setID: make([]int64, k),
	}
}

// Release returns n's storage to the engine's pool. The caller must hold
// no live references: in particular every child of n (whose sets alias
// n's buffers) must have been released first — pseudo-DFS pop order
// satisfies this naturally. Releasing nil is a no-op.
func (e *Engine) Release(n *Node) {
	if n == nil || n == e.root {
		return
	}
	e.free = append(e.free, n)
}

// Start creates the root node for u_0 = v0 and performs the level-0 task.
func (e *Engine) Start(v0 uint32) (*Node, TaskInfo) {
	return e.extend(e.root, v0)
}

// Extend performs the task of adding v at level n.Level+1: it applies that
// level's scheduled actions and returns the child node plus the task's
// operations. v must come from Candidates(n).
func (e *Engine) Extend(n *Node, v uint32) (*Node, TaskInfo) {
	if n.Level+1 >= e.Plan.K()-1 {
		panic("mine: Extend beyond the last extending level; use LeafCount")
	}
	return e.extend(n, v)
}

func (e *Engine) extend(n *Node, v uint32) (*Node, TaskInfo) {
	level := n.Level + 1
	child := e.newNode()
	child.Level = level
	child.Verts = append(child.Verts[:0], n.Verts...)
	child.Verts = append(child.Verts, v)
	child.nbuf = 0
	child.counted = false

	e.ops = e.ops[:0]
	e.fetch = append(e.fetch[:0], v)
	nv := e.G.Neighbors(v)
	steps := e.sched[level]
	if e.countedLeaf && level == e.Plan.K()-2 {
		e.countLeafTask(n, child, &steps[0], nv, v)
		return child, TaskInfo{Ops: e.ops, FetchVertices: e.fetch}
	}

	copy(child.sets, n.sets)
	copy(child.setID, n.setID)
	for i := range steps {
		st := &steps[i]
		var result []uint32
		switch st.op {
		case plan.OpInit:
			result = nv
			// Postponed anti-subtractions: peel each pending ancestor's
			// neighbor list off N(v) (paper §2.1).
			for _, m := range st.pending {
				anc := child.Verts[m]
				ancN := e.G.Neighbors(anc)
				e.fetch = append(e.fetch, anc)
				// The accumulating candidate loses ancN's members; the IU
				// executes this as a subtraction with the candidate as the
				// short input and the ancestor's neighbor list as the long.
				out := slices.Grow(child.claimBuf(), len(result))
				out = e.subtractInto(out, result, ancN, anc)
				child.storeBuf(out)
				e.addOp(setops.OpSubtract, result, ancN, anc, out)
				result = out
			}
		case plan.OpIntersect:
			src := n.sets[st.src]
			out := slices.Grow(child.claimBuf(), min(len(src), len(nv)))
			out = e.intersectSrcInto(out, src, n.setID[st.src], nv, v)
			child.storeBuf(out)
			e.addOp(setops.OpIntersect, src, nv, v, out)
			result = out
		case plan.OpSubtract:
			src := n.sets[st.src]
			out := slices.Grow(child.claimBuf(), len(src))
			if st.inter >= 0 {
				// src − N(v) = src − (src ∩ N(v)), and the sibling
				// intersection has written its targets already.
				out = setops.SubtractSubsetInto(out, src, child.sets[steps[st.inter].targets[0]])
			} else {
				out = e.subtractSrcInto(out, src, n.setID[st.src], nv, v)
			}
			child.storeBuf(out)
			e.addOp(setops.OpSubtract, src, nv, v, out)
			result = out
		default:
			panic(fmt.Sprintf("mine: unexpected op kind %v", st.op))
		}
		id := e.newID()
		for _, t := range st.targets {
			child.sets[t] = result
			child.setID[t] = id
		}
	}
	return child, TaskInfo{Ops: e.ops, FetchVertices: e.fetch}
}

// countLeafTask performs a level K−2 task whose one update st yields the
// leaf's candidate set: it counts that set inside the leaf window
// instead of building it. The leaf slot keeps the update's source for
// Candidates; the child's other slots are never read again, so they are
// not copied.
func (e *Engine) countLeafTask(n, child *Node, st *step, nv []uint32, v uint32) {
	t := st.src
	src, id := n.sets[t], n.setID[t]
	child.sets[t], child.setID[t] = src, id
	lo, hi, hasLo, hasHi := windowBounds(e.Plan.Levels[t].Restrictions, child.Verts)
	a, b := window(src, lo, hi, hasLo, hasHi)
	marks := func() []uint64 { return e.marksFor(id, src) }
	child.leafCount = countLeafWindow(st.op == plan.OpIntersect, src, a, b, nv, e.adj.DenseRow(v),
		child.Verts, e.leafAdj, marks, &e.stats)
	child.counted = true
	e.addOp(st.op.SetOp(), src, nv, v, nil)
}

// addOp appends one executed set operation to the task's Ops. It writes
// the fields in place: appending a SetOpExec literal builds the whole
// struct on the stack and copies it.
func (e *Engine) addOp(kind setops.Op, short, long []uint32, longVertex uint32, result []uint32) {
	e.ops = append(e.ops, SetOpExec{})
	op := &e.ops[len(e.ops)-1]
	op.Kind, op.Short, op.Long, op.LongVertex, op.Result = kind, short, long, longVertex, result
}

// marksFor returns the marks of src, whose set ID is id, marking it now
// unless the slot already holds it.
func (e *Engine) marksFor(id int64, src []uint32) []uint64 {
	if e.markID != id {
		if e.marks == nil {
			e.marks = make([]uint64, (e.G.NumVertices()+63)/64)
		}
		setops.Unmark(e.marks, e.marked)
		setops.Mark(e.marks, src)
		e.marked = append(e.marked[:0], src...)
		e.markID = id
	}
	return e.marks
}

// intersectSrcInto computes src ∩ N(v) into dst, where id is src's set
// ID: a dense row of v is probed with src, an N(v) many times longer
// than src is galloped through, and otherwise N(v) is probed against
// src's marks (sorted, because N(v) is).
func (e *Engine) intersectSrcInto(dst, src []uint32, id int64, nv []uint32, v uint32) []uint32 {
	switch row := e.adj.DenseRow(v); {
	case len(src) == 0:
		return dst
	case row != nil:
		return setops.IntersectBitsInto(dst, src, row)
	case len(nv) >= setops.GallopSkewThreshold*len(src):
		return setops.IntersectGallopingInto(dst, src, nv)
	default:
		return setops.IntersectBitsInto(dst, nv, e.marksFor(id, src))
	}
}

// subtractSrcInto computes src − N(v) into dst, where id is src's set
// ID: src ∩ N(v) is probed from src's marks into scratch and removed
// from src, unless a dense row of v or galloping wins.
func (e *Engine) subtractSrcInto(dst, src []uint32, id int64, nv []uint32, v uint32) []uint32 {
	if len(src) == 0 {
		return dst
	}
	if e.adj.DenseRow(v) != nil || len(nv) >= setops.GallopSkewThreshold*len(src) {
		return e.subtractInto(dst, src, nv, v)
	}
	e.probe = setops.IntersectBitsInto(e.probe[:0], nv, e.marksFor(id, src))
	return setops.SubtractSubsetInto(dst, src, e.probe)
}

// subtractInto computes src − N(v) into dst through v's dense row when
// it has one, and otherwise with setops.SubtractGallopingInto, which
// gallops through an N(v) many times longer than src and merges
// otherwise.
func (e *Engine) subtractInto(dst, src, nv []uint32, v uint32) []uint32 {
	if row := e.adj.DenseRow(v); row != nil {
		return setops.SubtractBitsInto(dst, src, row)
	}
	return setops.SubtractGallopingInto(dst, src, nv)
}

// buildLeaf builds the leaf set of the counted node n into its leaf
// buffer: the update the counting task skipped, from the source still in
// the leaf slot.
func (e *Engine) buildLeaf(n *Node) []uint32 {
	t := n.Level + 1
	src, id := n.sets[t], n.setID[t]
	v := n.Verts[n.Level]
	nv := e.G.Neighbors(v)
	if e.sched[n.Level][0].op == plan.OpIntersect {
		n.leaf = e.intersectSrcInto(n.leaf[:0], src, id, nv, v)
	} else {
		n.leaf = e.subtractSrcInto(slices.Grow(n.leaf[:0], len(src)), src, id, nv, v)
	}
	return n.leaf
}

// Candidates returns the valid vertices for extending n at the next
// level, with symmetry-breaking restrictions and already-used vertices
// filtered out. The returned slice must not be modified; it stays valid
// while n is live (it aliases n's candidate storage, or is freshly
// allocated on the rare path where chosen vertices intrude).
func (e *Engine) Candidates(n *Node) []uint32 {
	set := n.sets[n.Level+1]
	if n.counted {
		set = e.buildLeaf(n)
	}
	lo, hi, hasLo, hasHi := windowBounds(e.Plan.Levels[n.Level+1].Restrictions, n.Verts)
	a, b := window(set, lo, hi, hasLo, hasHi)
	win := set[a:b]
	// Chosen vertices rarely appear in the window; copy only if needed.
	clean := true
	for _, u := range n.Verts {
		if setops.Contains(win, u) {
			clean = false
			break
		}
	}
	if clean {
		return win
	}
	out := make([]uint32, 0, len(win))
	for _, v := range win {
		if !containsVert(n.Verts, v) {
			out = append(out, v)
		}
	}
	return out
}

// LeafCount counts the valid vertices at the final level below n, i.e.
// the embeddings completed through n. n.Level must be K-2. When the task
// that made n counted its leaf update, this returns that count; otherwise
// it counts the materialized leaf set's window.
func (e *Engine) LeafCount(n *Node) uint64 {
	if n.Level != e.Plan.K()-2 {
		panic("mine: LeafCount on non-penultimate node")
	}
	if n.counted {
		return n.leafCount
	}
	set := n.sets[n.Level+1]
	lo, hi, hasLo, hasHi := windowBounds(e.Plan.Levels[n.Level+1].Restrictions, n.Verts)
	a, b := window(set, lo, hi, hasLo, hasHi)
	count := b - a
	for _, u := range n.Verts {
		if setops.Contains(set[a:b], u) {
			count--
		}
	}
	return uint64(count)
}

func containsVert(vs []uint32, v uint32) bool {
	for _, u := range vs {
		if u == v {
			return true
		}
	}
	return false
}
