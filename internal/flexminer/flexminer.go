// Package flexminer models the paper's baseline accelerator, FlexMiner
// (ISCA '21), as reimplemented by the FINGERS authors for their
// methodology (§5): multiple PEs exploit only coarse-grained tree-level
// parallelism; each PE executes a strict DFS with one merge-based compute
// unit processing one element per cycle, so neighbor-list fetch latencies
// are fully exposed by the DFS dependency chain (§2.3), and a neighbor
// list too large for the PE-private cache is refetched for every set
// operation that consumes it (§3.3, Figure 3).
//
// As in the paper's own reimplementation, the c-map module is omitted:
// candidate sets are cached in the PE private cache instead (§5).
package flexminer

import (
	"fingers/internal/accel"
	"fingers/internal/graph"
	"fingers/internal/mem"
	"fingers/internal/mine"
	"fingers/internal/plan"
	"fingers/internal/telemetry"
)

// Config parameterizes a FlexMiner PE.
type Config struct {
	// PrivateCacheBytes is the PE-local cache for candidate sets and the
	// current neighbor list; lists larger than this are refetched per set
	// operation.
	PrivateCacheBytes int64
	// TaskOverheadCycles is the fixed scheduling cost per task.
	TaskOverheadCycles mem.Cycles
	// SetCentric switches the PE cost model to the SISA-style
	// set-centric design point (ArchSISA): each neighbor list is costed
	// in the representation the graph's hybrid view classifies it into
	// — dense hub row, compressed bitmap, or raw array — so fetch
	// traffic shrinks to graph.HybridAdj.RowBytes, and a set operation
	// whose long side is a dense or bitmap list (HasStoredRow) costs one
	// probe cycle per short-side element instead of the full two-sided
	// merge. The bitmap tier exists only in this model: the host keeps
	// no bitmaps, and the functional engine's kernels ignore the tier.
	// Counts are unaffected; only timing changes.
	SetCentric bool
}

// DefaultConfig matches the paper's FlexMiner setup.
func DefaultConfig() Config {
	return Config{PrivateCacheBytes: 32 << 10, TaskOverheadCycles: 4}
}

// workItem is one pending task — start a new root tree or extend a node —
// or, with release set, the marker below a node's candidate items that
// hands the node back to its engine once its whole subtree is done.
type workItem struct {
	engine  int
	start   bool
	release bool
	root    uint32
	node    *mine.Node
	cand    uint32
}

// PE is one FlexMiner processing element.
type PE struct {
	cfg     Config
	g       *graph.Graph
	adj     *graph.HybridAdj // non-nil only under Config.SetCentric
	engines []*mine.Engine
	roots   *accel.RootScheduler
	shared  accel.MemPort
	now     mem.Cycles
	count   uint64
	tasks   int64
	stack   []workItem

	// id is the PE's chip index, for telemetry attribution.
	id int
	// trc receives events; nil (the default) disables every hook.
	trc telemetry.Tracer
	// bd attributes every clock advance: Compute + MemStall + Overhead
	// == now at all times (Idle is filled by the chip rollup).
	bd telemetry.Breakdown
}

// NewPE builds FlexMiner PE id of a chip, mining the given plans (one
// for single-pattern runs, several for multi-pattern) with roots from the
// chip's scheduler against the shared cache; the method value cfg.NewPE
// is the PE factory accel.NewChip takes.
func (cfg Config) NewPE(id int, g *graph.Graph, plans []*plan.Plan, roots *accel.RootScheduler, shared accel.MemPort) *PE {
	pe := &PE{id: id, cfg: cfg, g: g, roots: roots, shared: shared}
	if cfg.SetCentric {
		pe.adj = g.Hybrid() // shared cached view: PEs never duplicate it
	}
	for _, pl := range plans {
		pe.engines = append(pe.engines, mine.NewEngine(g, pl))
	}
	return pe
}

// Time returns the PE's local clock.
func (pe *PE) Time() mem.Cycles { return pe.now }

// Count returns the embeddings found so far.
func (pe *PE) Count() uint64 { return pe.count }

// Tasks returns the number of extension tasks executed.
func (pe *PE) Tasks() int64 { return pe.tasks }

// Breakdown returns the PE's cycle attribution so far. Idle is zero; the
// chip rollup fills it in as makespan − Time().
func (pe *PE) Breakdown() telemetry.Breakdown { return pe.bd }

// SetTracer attaches (or, with nil, detaches) an event tracer.
func (pe *PE) SetTracer(t telemetry.Tracer) { pe.trc = t }

// CurrentRoot reports the root vertex of the search tree the PE is
// mining right now (accel.RootHolder): the root of the bottommost DFS
// work item. ok is false between search trees, when a failure cannot be
// attributed to any root.
func (pe *PE) CurrentRoot() (uint32, bool) {
	if len(pe.stack) == 0 {
		return 0, false
	}
	bottom := pe.stack[0]
	if bottom.start {
		return bottom.root, true
	}
	if bottom.node != nil && len(bottom.node.Verts) > 0 {
		return bottom.node.Verts[0], true
	}
	return 0, false
}

// Step executes one task in DFS order.
//
// Node pooling: leaves and dead ends are released at once. An interior
// node gets a release marker below its candidate items; the marker
// surfaces after the node's whole subtree is done, so children are
// released before parents. Markers are consumed at the end of the Step
// that exposes them: they cost no Step, and between Steps the stack
// holds markers only beneath pending tasks.
func (pe *PE) Step() bool {
	if len(pe.stack) == 0 {
		v, ok := pe.roots.Next()
		if !ok {
			return false
		}
		// The trunks of all patterns share the root (multi-pattern, §2.1);
		// push one start item per plan so the later ones reuse the
		// freshly cached neighbor list.
		for i := len(pe.engines) - 1; i >= 0; i-- {
			pe.stack = append(pe.stack, workItem{engine: i, start: true, root: v})
		}
		return true
	}
	item := pe.stack[len(pe.stack)-1]
	pe.stack = pe.stack[:len(pe.stack)-1]
	e := pe.engines[item.engine]

	var node *mine.Node
	var info mine.TaskInfo
	if item.start {
		node, info = e.Start(item.root)
	} else {
		node, info = e.Extend(item.node, item.cand)
	}
	pe.charge(info)

	if node.Level == e.Plan.K()-2 {
		pe.count += e.LeafCount(node)
		e.Release(node)
	} else if cands := e.Candidates(node); len(cands) == 0 {
		e.Release(node)
	} else {
		pe.stack = append(pe.stack, workItem{engine: item.engine, release: true, node: node})
		for i := len(cands) - 1; i >= 0; i-- {
			pe.stack = append(pe.stack, workItem{engine: item.engine, node: node, cand: cands[i]})
		}
	}
	pe.popReleases()
	return true
}

// popReleases consumes the release markers on top of the stack.
func (pe *PE) popReleases() {
	for n := len(pe.stack); n > 0 && pe.stack[n-1].release; n-- {
		it := pe.stack[n-1]
		pe.stack = pe.stack[:n-1]
		pe.engines[it.engine].Release(it.node)
	}
}

// charge advances the PE clock by the task's cost under the FlexMiner
// model: exposed serial fetches, then serial merge compute at one element
// per cycle, with per-op refetch of neighbor lists that overflow the
// private cache.
func (pe *PE) charge(info mine.TaskInfo) {
	pe.tasks++
	start := pe.now
	if pe.trc != nil {
		pe.trc.TaskGroupBegin(pe.id, -1, start, 1)
	}
	pe.now += pe.cfg.TaskOverheadCycles
	pe.bd.Overhead += pe.cfg.TaskOverheadCycles
	// DFS dependency: each fetch is fully exposed before compute starts.
	// The fetch list is at most a few entries (the new vertex plus
	// postponed ancestors), so duplicates are found by a prefix scan
	// instead of a per-task map allocation.
	for i, v := range info.FetchVertices {
		dup := false
		for j := 0; j < i; j++ {
			if info.FetchVertices[j] == v {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		t0 := pe.now
		pe.now = pe.shared.Access(pe.now, pe.g.NeighborAddr(v), pe.rowBytes(v))
		pe.bd.MemStall += pe.now - t0
	}
	// Serial set operations on the single merge unit. Sequential updates
	// refetch a long input that does not fit in the private cache
	// (Figure 3's motivating inefficiency). An op's long input counts as
	// already used when any earlier op of this task consumed it.
	for i := range info.Ops {
		op := &info.Ops[i]
		usedBefore := false
		for j := 0; j < i; j++ {
			if info.Ops[j].LongVertex == op.LongVertex {
				usedBefore = true
				break
			}
		}
		if usedBefore && pe.rowBytes(op.LongVertex) > pe.cfg.PrivateCacheBytes {
			t0 := pe.now
			pe.now = pe.shared.Access(pe.now, pe.g.NeighborAddr(op.LongVertex), pe.rowBytes(op.LongVertex))
			pe.bd.MemStall += pe.now - t0
		}
		// A candidate set spilled beyond the private cache is read back
		// through the shared cache.
		if int64(len(op.Short))*4 > pe.cfg.PrivateCacheBytes {
			t0 := pe.now
			pe.now = pe.shared.Access(pe.now, spillAddr(pe.g), int64(len(op.Short))*4)
			pe.bd.MemStall += pe.now - t0
		}
		if pe.trc != nil {
			pe.trc.SetOpIssue(pe.id, pe.now, op.Kind.String(), len(op.Long), len(op.Short), 1)
		}
		merge := mem.Cycles(len(op.Short) + len(op.Long))
		if pe.adj != nil && pe.adj.HasStoredRow(op.LongVertex) {
			// Set-centric: the long side is a stored row, so the op is
			// one membership probe per short-side element.
			merge = mem.Cycles(len(op.Short))
		}
		pe.now += merge
		pe.bd.Compute += merge
	}
	if pe.trc != nil {
		pe.trc.TaskGroupEnd(pe.id, pe.now)
	}
}

// rowBytes returns the fetch size of v's neighbor list: its hybrid
// storage representation under the set-centric model, the raw CSR list
// otherwise.
func (pe *PE) rowBytes(v uint32) int64 {
	if pe.adj != nil {
		return pe.adj.RowBytes(v)
	}
	return pe.g.NeighborBytes(v)
}

// spillAddr places candidate-set spill traffic in an address region
// beyond the graph adjacency data.
func spillAddr(g *graph.Graph) int64 { return g.TotalAdjacencyBytes() + (1 << 20) }
