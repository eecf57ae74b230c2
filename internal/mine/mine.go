package mine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"fingers/internal/graph"
	"fingers/internal/plan"
	"fingers/internal/simerr"
)

// Count mines the plan on g and returns the number of embeddings (with
// symmetry breaking applied, each automorphism class counts once). It
// runs the adaptive Counter; the result is bit-identical to CountOracle.
func Count(g *graph.Graph, pl *plan.Plan) uint64 {
	c := NewCounter(g, pl)
	var total uint64
	for v := 0; v < g.NumVertices(); v++ {
		total += c.Root(uint32(v))
	}
	return total
}

// CountOracle mines the plan with the reference Engine, the task-granular
// tree walk the accelerator timing models replay. The Engine runs the
// Counter's schedule and leaf kernel, but materializes every inner
// candidate set as an array in its own pooled nodes, so tests
// cross-check the Counter's bitset sets, lazy steps and derived marks
// against it; the Engine itself is checked against a plain merge walk.
func CountOracle(g *graph.Graph, pl *plan.Plan) uint64 {
	e := NewEngine(g, pl)
	var total uint64
	for v := 0; v < g.NumVertices(); v++ {
		total += e.CountFromRoot(uint32(v))
	}
	return total
}

// CountFromRoot mines the single search tree rooted at v0 — the unit of
// coarse-grained parallelism the paper distributes across PEs (§3.1).
func (e *Engine) CountFromRoot(v0 uint32) uint64 {
	root, _ := e.Start(v0)
	return e.countSubtree(root)
}

func (e *Engine) countSubtree(n *Node) uint64 {
	if n.Level == e.Plan.K()-2 {
		return e.LeafCount(n)
	}
	var total uint64
	for _, v := range e.Candidates(n) {
		child, _ := e.Extend(n, v)
		total += e.countSubtree(child)
	}
	return total
}

// chunksPerWorker sizes the dynamic chunks: enough chunks per worker
// that a straggler holding one chunk cannot serialize the tail, few
// enough that the shared cursor stays cold.
const chunksPerWorker = 32

// maxRootChunk caps the chunk size so even enormous graphs keep the
// steal granularity fine.
const maxRootChunk = 256

// CountParallel mines the plan with work-stealing dynamic chunking over
// root vertices: workers pull fixed-size chunks of roots off a shared
// atomic cursor, each mining into its own Counter arena (zero
// steady-state allocation), with roots served in descending-degree order
// so the heavy hub trees of power-law graphs are in flight first rather
// than left to straggle at the tail. workers ≤ 0 uses GOMAXPROCS. The
// result is bit-identical to Count.
func CountParallel(g *graph.Graph, pl *plan.Plan, workers int) uint64 {
	n, err := CountCtx(context.Background(), g, pl, workers)
	if err != nil {
		// Unreachable for a background context unless a mining kernel
		// panicked; preserve the crash contract of the ctx-less entry.
		panic(err)
	}
	return n
}

// CountCtx is CountParallel with cancellation and panic recovery: the
// scheduler checks ctx once per chunk and drains early when it fires,
// returning the partial count alongside a *simerr.SimError wrapping
// ctx.Err(). A panic inside a mining kernel likewise returns as a
// *SimError attributed to the worker and root, aborting the remaining
// workers at their next chunk boundary. A nil error means the count is
// complete.
func CountCtx(ctx context.Context, g *graph.Graph, pl *plan.Plan, workers int) (uint64, error) {
	return countCtx(ctx, g, pl, workers, g.Hybrid())
}

// countCtx is CountCtx with its Counters reading dense rows from adj,
// which tests build at a forced hub threshold.
func countCtx(ctx context.Context, g *graph.Graph, pl *plan.Plan, workers int, adj *graph.HybridAdj) (uint64, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := int64(g.NumVertices())
	if n == 0 {
		if cerr := ctx.Err(); cerr != nil {
			return 0, simerr.Cancelled("miner", 0, cerr)
		}
		return 0, nil
	}
	if int64(workers) > n {
		workers = int(n)
	}
	chunk := n / int64(workers*chunksPerWorker)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > maxRootChunk {
		chunk = maxRootChunk
	}
	// Degree-descending service order: the most expensive search trees
	// are claimed first, so the makespan tail is a cheap tree, not a hub.
	order := g.DegreeOrder()

	// A worker panic cancels this derived context so its peers stop at
	// their next chunk boundary instead of mining to exhaustion.
	wctx, abort := context.WithCancel(ctx)
	defer abort()

	var cursor atomic.Int64
	var total atomic.Uint64
	var errMu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := newCounter(g, pl, adj)
			var local uint64
			cur := int64(simerr.NoRoot)
			defer func() {
				// Bank the roots mined so far even when unwinding from a
				// panic: partial counts are part of the partial report.
				total.Add(local)
				if r := recover(); r != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = simerr.FromPanic("miner", id, 0, cur, r)
					}
					errMu.Unlock()
					abort()
				}
			}()
			for {
				base := cursor.Add(chunk) - chunk
				if base >= n || wctx.Err() != nil {
					break
				}
				end := base + chunk
				if end > n {
					end = n
				}
				for _, v := range order[base:end] {
					cur = int64(v)
					local += c.Root(v)
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return total.Load(), firstErr
	}
	if cerr := ctx.Err(); cerr != nil {
		return total.Load(), simerr.Cancelled("miner", 0, cerr)
	}
	return total.Load(), nil
}

// List enumerates every embedding, invoking visit with the mapped
// vertices indexed by plan level. The slice is reused across calls; visit
// returning false stops the enumeration.
func List(g *graph.Graph, pl *plan.Plan, visit func(emb []uint32) bool) {
	e := NewEngine(g, pl)
	emb := make([]uint32, pl.K())
	var rec func(n *Node) bool
	rec = func(n *Node) bool {
		if n.Level == pl.K()-2 {
			copy(emb, n.Verts)
			for _, v := range e.Candidates(n) {
				emb[pl.K()-1] = v
				if !visit(emb) {
					return false
				}
			}
			return true
		}
		for _, v := range e.Candidates(n) {
			child, _ := e.Extend(n, v)
			if !rec(child) {
				return false
			}
		}
		return true
	}
	for v := 0; v < g.NumVertices(); v++ {
		root, _ := e.Start(uint32(v))
		if !rec(root) {
			return
		}
	}
}

// CountMulti mines every plan of a multi-pattern plan and returns the
// per-pattern counts, in plan order (e.g. 3-motif counting, §5).
func CountMulti(g *graph.Graph, mp *plan.MultiPlan) []uint64 {
	counts, err := CountMultiCtx(context.Background(), g, mp, 1)
	if err != nil {
		// Unreachable for a background context unless a mining kernel
		// panicked; preserve the crash contract of the ctx-less entry.
		panic(err)
	}
	return counts
}

// CountMultiCtx is CountMulti with cancellation and panic recovery,
// parallelized over root vertices within each pattern (workers ≤ 0 uses
// GOMAXPROCS; CountMulti runs one). On a failure it
// returns the counts completed so far — later patterns hold their
// partial counts — alongside the *simerr.SimError from CountCtx.
func CountMultiCtx(ctx context.Context, g *graph.Graph, mp *plan.MultiPlan, workers int) ([]uint64, error) {
	counts := make([]uint64, len(mp.Plans))
	for i, pl := range mp.Plans {
		c, err := CountCtx(ctx, g, pl, workers)
		counts[i] = c
		if err != nil {
			return counts, err
		}
	}
	return counts, nil
}
