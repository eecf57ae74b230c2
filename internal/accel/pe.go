package accel

import (
	"fingers/internal/graph"
	"fingers/internal/mem"
	"fingers/internal/mine"
	"fingers/internal/plan"
	"fingers/internal/simerr"
	"fingers/internal/telemetry"
)

// PE is one processing element driven by the chip's event loop. Step
// executes the PE's next unit of work (a task, or a task group) beginning
// at its local time, advancing it; it returns false once the PE is
// permanently idle (empty stack and no roots left). State exposes the
// clock, counters and attribution the chip reads; a model embeds a
// PEState, which supplies State.
type PE interface {
	Step() bool
	State() *PEState
}

// PEState is what every PE model shares: the PE's place on the chip,
// its root dispatch, its search-tree stack and its clock and counters.
// The FlexMiner and FINGERS models embed it by value and differ only in
// how a Step walks the stack and charges time.
type PEState struct {
	// ID is the PE's chip index, for telemetry attribution.
	ID int
	// G is the graph being mined.
	G *graph.Graph
	// Mem is the PE's port into the shared cache and DRAM.
	Mem MemPort
	// Engines holds one functional search-tree engine per plan.
	Engines []*mine.Engine

	// Root is the root vertex of the search tree in flight: the last one
	// NextRoot drew.
	Root uint32
	// Now is the PE's local clock. Only Step may change it: Run caches
	// the value between a PE's steps.
	Now mem.Cycles
	// Found counts the embeddings found, summed over the plans.
	Found uint64
	// Tasks counts the extension tasks executed.
	Tasks int64
	// Groups counts the task groups executed; zero for models that form
	// none.
	Groups int64
	// BD attributes every clock advance: Compute + MemStall + Overhead
	// == Now at all times (Idle is filled by the chip rollup).
	BD telemetry.Breakdown
	// Trc receives events; nil (the default) disables every hook without
	// affecting timing.
	Trc telemetry.Tracer

	roots  *RootScheduler
	rooted bool
	stack  []frame
}

// frame is one stack entry: a search-tree node of plan engine with its
// candidates, of which next is the first not yet extended — the unit a
// Step draws its task group from (§4.1).
type frame struct {
	engine int
	node   *mine.Node
	cands  []uint32
	next   int
}

// NewPEState returns the state of PE id of a chip mining plans over g,
// with roots drawn from the chip's scheduler and memory reached through
// port.
func NewPEState(id int, g *graph.Graph, plans []*plan.Plan, roots *RootScheduler, port MemPort) PEState {
	st := PEState{ID: id, G: g, Mem: port, roots: roots}
	for _, pl := range plans {
		st.Engines = append(st.Engines, mine.NewEngine(g, pl))
	}
	return st
}

// State returns s; a model embedding PEState gets it as its PE.State.
func (s *PEState) State() *PEState { return s }

// NextRoot draws the next search-tree root into Root; ok is false once
// the chip's roots are exhausted.
func (s *PEState) NextRoot() (v uint32, ok bool) {
	v, ok = s.roots.Next()
	if ok {
		s.Root, s.rooted = v, true
	}
	return v, ok
}

// rootID is the in-flight root for failure attribution: simerr.NoRoot
// before the PE drew its first.
func (s *PEState) rootID() int64 {
	if !s.rooted {
		return simerr.NoRoot
	}
	return int64(s.Root)
}

// Next returns the next task group: up to max unexplored candidates of
// the topmost frame that has any, with that frame's node and plan
// engine. Exhausted frames above it are popped first and their nodes
// released, children before parents. group is nil when the stack is
// empty: the tree is done and the PE starts the next trunk or root.
func (s *PEState) Next(max int) (engine int, parent *mine.Node, group []uint32) {
	for n := len(s.stack); n > 0; n-- {
		top := &s.stack[n-1]
		if top.next < len(top.cands) {
			k := min(max, len(top.cands)-top.next)
			group = top.cands[top.next : top.next+k]
			top.next += k
			return top.engine, top.node, group
		}
		s.Engines[top.engine].Release(top.node)
		s.stack = s.stack[:n-1]
	}
	return 0, nil, nil
}

// Finish completes the task of plan engine that produced node: a leaf
// adds its embeddings to Found, and an interior node with candidates is
// pushed as a frame. Nodes that gain no frame go back to the engine's
// pool at once; framed nodes when Next pops their frame.
func (s *PEState) Finish(engine int, node *mine.Node) {
	e := s.Engines[engine]
	if node.Level == e.Plan.K()-2 {
		s.Found += e.LeafCount(node)
		e.Release(node)
		return
	}
	cands := e.Candidates(node)
	if len(cands) == 0 {
		e.Release(node)
		return
	}
	s.stack = append(s.stack, frame{engine: engine, node: node, cands: cands})
}

// Access reads bytes at addr through the PE's memory port from the
// clock, advancing it, and charges the wait to memory stall.
func (s *PEState) Access(addr, bytes int64) {
	t0 := s.Now
	s.Now = s.Mem.Access(t0, addr, bytes)
	s.BD.MemStall += s.Now - t0
}

// SpillAddr is where candidate sets that overflow the PE-private cache
// are read back from: an address region beyond the graph's adjacency
// data.
func (s *PEState) SpillAddr() int64 { return s.G.TotalAdjacencyBytes() + (1 << 20) }
