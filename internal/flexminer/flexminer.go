// Package flexminer models the paper's baseline accelerator, FlexMiner
// (ISCA '21), as reimplemented by the FINGERS authors for their
// methodology (§5): multiple PEs exploit only coarse-grained tree-level
// parallelism; each PE executes a strict DFS with one merge-based compute
// unit processing one element per cycle, so neighbor-list fetch latencies
// are fully exposed by the DFS dependency chain (§2.3), and a neighbor
// list too large for the PE-private cache is refetched for every set
// operation that consumes it (§3.3, Figure 3).
//
// A PE walks the frame stack of accel.PEState, which the FINGERS model
// shares, in task groups of one: strict DFS is pseudo-DFS with single-task
// groups (§4.1).
//
// As in the paper's own reimplementation, the c-map module is omitted:
// candidate sets are cached in the PE private cache instead (§5).
package flexminer

import (
	"fingers/internal/accel"
	"fingers/internal/graph"
	"fingers/internal/mem"
	"fingers/internal/mine"
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

// PE is one FlexMiner processing element: the shared PE state walked
// as a strict DFS, one task per Step — the pseudo-DFS frame walk with
// task groups of one (§4.1).
type PE struct {
	accel.PEState
	cfg Config
	adj *graph.HybridAdj // non-nil only under Config.SetCentric
	// trunk is the plan whose trunk the next tree-less Step starts from
	// Root; zero between search trees. The trunks of all patterns share
	// the root (multi-pattern, §2.1) and start one per Step, each after
	// the previous one's whole subtree, so the later ones reuse the
	// freshly cached neighbor list.
	trunk int
}

// NewPE builds a FlexMiner PE around the state the chip made for it;
// the method value cfg.NewPE is the PE factory accel.NewChip takes.
func (cfg Config) NewPE(st accel.PEState) accel.PE {
	pe := &PE{PEState: st, cfg: cfg}
	if cfg.SetCentric {
		pe.adj = st.G.Hybrid() // shared cached view: PEs never duplicate it
	}
	return pe
}

// Step executes one task in DFS order: the next candidate of the
// topmost frame or, once the tree's stack is empty, the next plan's
// trunk from the current root or a new root.
func (pe *PE) Step() bool {
	if e, parent, group := pe.Next(1); group != nil {
		node, info := pe.Engines[e].Extend(parent, group[0])
		pe.charge(info)
		pe.Finish(e, node)
		return true
	}
	if pe.trunk == 0 {
		if _, ok := pe.NextRoot(); !ok {
			return false
		}
	}
	e := pe.trunk
	pe.trunk = (e + 1) % len(pe.Engines)
	node, info := pe.Engines[e].Start(pe.Root)
	pe.charge(info)
	pe.Finish(e, node)
	return true
}

// charge advances the PE clock by the task's cost under the FlexMiner
// model: exposed serial fetches, then serial merge compute at one element
// per cycle, with per-op refetch of neighbor lists that overflow the
// private cache.
func (pe *PE) charge(info mine.TaskInfo) {
	pe.Tasks++
	if pe.Trc != nil {
		pe.Trc.TaskGroupBegin(pe.ID, -1, pe.Now, 1)
	}
	pe.Now += pe.cfg.TaskOverheadCycles
	pe.BD.Overhead += pe.cfg.TaskOverheadCycles
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
		if !dup {
			pe.Access(pe.G.NeighborAddr(v), pe.rowBytes(v))
		}
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
			pe.Access(pe.G.NeighborAddr(op.LongVertex), pe.rowBytes(op.LongVertex))
		}
		// A candidate set spilled beyond the private cache is read back
		// through the shared cache.
		if int64(len(op.Short))*4 > pe.cfg.PrivateCacheBytes {
			pe.Access(pe.SpillAddr(), int64(len(op.Short))*4)
		}
		if pe.Trc != nil {
			pe.Trc.SetOpIssue(pe.ID, pe.Now, op.Kind.String(), len(op.Long), len(op.Short), 1)
		}
		merge := mem.Cycles(len(op.Short) + len(op.Long))
		if pe.adj != nil && pe.adj.HasStoredRow(op.LongVertex) {
			// Set-centric: the long side is a stored row, so the op is
			// one membership probe per short-side element.
			merge = mem.Cycles(len(op.Short))
		}
		pe.Now += merge
		pe.BD.Compute += merge
	}
	if pe.Trc != nil {
		pe.Trc.TaskGroupEnd(pe.ID, pe.Now)
	}
}

// rowBytes returns the fetch size of v's neighbor list: its hybrid
// storage representation under the set-centric model, the raw CSR list
// otherwise.
func (pe *PE) rowBytes(v uint32) int64 {
	if pe.adj != nil {
		return pe.adj.RowBytes(v)
	}
	return pe.G.NeighborBytes(v)
}
