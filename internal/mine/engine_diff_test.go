package mine

import (
	"fmt"
	"slices"
	"testing"

	"fingers/internal/graph"
	"fingers/internal/graph/gen"
	"fingers/internal/plan"
	"fingers/internal/setops"
)

// refNode is a search-tree node of the reference walk: the chosen
// vertices and every candidate set, each tagged with the ID of the group
// that produced it (equal IDs = one shared operation).
type refNode struct {
	verts []uint32
	sets  [][]uint32
	ids   []int
}

// refWalk replays a plan with nothing but the plain merge kernels, as the
// timing models' contract describes it: one task per extension, a level's
// actions grouped so identical updates run once, postponed ancestors
// peeled off N(v) one subtraction each.
type refWalk struct {
	g      *graph.Graph
	pl     *plan.Plan
	nextID int
}

type refGroup struct {
	op      plan.OpKind
	pending []int
	srcID   int
	targets []int
}

// groups groups the actions of the level below n so identical updates
// run once: inits by their pending-ancestor list, arithmetic updates by
// (op, the ID of the set they read), in the order of their first action.
func (r *refWalk) groups(n *refNode) []*refGroup {
	var groups []*refGroup
	for _, act := range r.pl.Levels[len(n.verts)].Actions {
		var g *refGroup
		for _, h := range groups {
			if act.Op == plan.OpInit && h.op == plan.OpInit && slices.Equal(h.pending, act.Pending) ||
				act.Op != plan.OpInit && h.op == act.Op && h.srcID == n.ids[act.Target] {
				g = h
				break
			}
		}
		if g == nil {
			g = &refGroup{op: act.Op, pending: act.Pending}
			if act.Op != plan.OpInit {
				g.srcID = n.ids[act.Target]
			}
			groups = append(groups, g)
		}
		g.targets = append(g.targets, act.Target)
	}
	return groups
}

// extend returns the child of n for vertex v and the task it performed.
func (r *refWalk) extend(n *refNode, v uint32) (*refNode, TaskInfo) {
	child := &refNode{
		verts: append(slices.Clone(n.verts), v),
		sets:  slices.Clone(n.sets),
		ids:   slices.Clone(n.ids),
	}
	groups := r.groups(n)
	nv := r.g.Neighbors(v)
	info := TaskInfo{FetchVertices: []uint32{v}}
	for _, g := range groups {
		var result []uint32
		switch g.op {
		case plan.OpInit:
			result = nv
			for _, m := range g.pending {
				anc := child.verts[m]
				ancN := r.g.Neighbors(anc)
				info.FetchVertices = append(info.FetchVertices, anc)
				out := setops.SubtractInto(nil, result, ancN)
				info.Ops = append(info.Ops, SetOpExec{Kind: setops.OpSubtract, Short: result, Long: ancN, LongVertex: anc, Result: out})
				result = out
			}
		case plan.OpIntersect:
			src := n.sets[g.targets[0]]
			result = setops.IntersectInto(nil, src, nv)
			info.Ops = append(info.Ops, SetOpExec{Kind: setops.OpIntersect, Short: src, Long: nv, LongVertex: v, Result: result})
		case plan.OpSubtract:
			src := n.sets[g.targets[0]]
			result = setops.SubtractInto(nil, src, nv)
			info.Ops = append(info.Ops, SetOpExec{Kind: setops.OpSubtract, Short: src, Long: nv, LongVertex: v, Result: result})
		}
		r.nextID++
		for _, t := range g.targets {
			child.sets[t] = result
			child.ids[t] = r.nextID
		}
	}
	return child, info
}

// root returns the reference's level −1 parent.
func (r *refWalk) root() *refNode {
	k := r.pl.K()
	return &refNode{sets: make([][]uint32, k), ids: make([]int, k)}
}

// candidates filters n's next-level set by the plan's restrictions and
// the chosen vertices, element by element.
func (r *refWalk) candidates(n *refNode) []uint32 {
	level := len(n.verts)
	var out []uint32
	for _, c := range n.sets[level] {
		ok := !slices.Contains(n.verts, c)
		for _, res := range r.pl.Levels[level].Restrictions {
			b := n.verts[res.Earlier]
			if res.Greater && c <= b || !res.Greater && c >= b {
				ok = false
			}
		}
		if ok {
			out = append(out, c)
		}
	}
	return out
}

// diffChecker compares an engine's tasks with the reference walk's.
type diffChecker struct {
	tb    testing.TB
	e     *Engine
	ref   *refWalk
	tasks int
	count uint64
}

func newDiffChecker(tb testing.TB, g *graph.Graph, pl *plan.Plan, hubThreshold int) *diffChecker {
	e := NewEngine(g, pl)
	if hubThreshold > 0 {
		e.adj = graph.NewHybridAdj(g, hubThreshold)
	}
	return &diffChecker{tb: tb, e: e, ref: &refWalk{g: g, pl: pl}}
}

// task runs one extension on both sides (parent nil = Start) and fails
// on the first difference.
func (d *diffChecker) task(n *Node, rn *refNode, v uint32) (*Node, *refNode) {
	d.tb.Helper()
	var child *Node
	var got TaskInfo
	if n == nil {
		child, got = d.e.Start(v)
		rn = d.ref.root()
	} else {
		child, got = d.e.Extend(n, v)
	}
	rchild, want := d.ref.extend(rn, v)
	d.tasks++
	if !slices.Equal(got.FetchVertices, want.FetchVertices) || len(got.Ops) != len(want.Ops) {
		d.tb.Fatalf("task %d (verts %v): got fetch %v with %d ops, want fetch %v with %d ops",
			d.tasks, rchild.verts, got.FetchVertices, len(got.Ops), want.FetchVertices, len(want.Ops))
	}
	counted := countedLeafTask(d.ref.pl, len(rchild.verts)-1)
	for i, w := range want.Ops {
		o := got.Ops[i]
		if counted && o.Result != nil {
			d.tb.Fatalf("task %d (verts %v): the counted leaf update has result %v, want nil", d.tasks, rchild.verts, o.Result)
		}
		if o.Kind != w.Kind || o.LongVertex != w.LongVertex ||
			!slices.Equal(o.Short, w.Short) || !slices.Equal(o.Long, w.Long) || !counted && !slices.Equal(o.Result, w.Result) {
			d.tb.Fatalf("task %d (verts %v) op %d:\n got  %v long %d short %v long %v result %v\n want %v long %d short %v long %v result %v",
				d.tasks, rchild.verts, i, o.Kind, o.LongVertex, o.Short, o.Long, o.Result,
				w.Kind, w.LongVertex, w.Short, w.Long, w.Result)
		}
	}
	return child, rchild
}

// countedLeafTask reports whether a task at the given level counts its
// one update instead of building it: level K−2 runs a single intersect or
// subtract, whose result is the leaf's candidate set.
func countedLeafTask(pl *plan.Plan, level int) bool {
	k := pl.K()
	if k < 3 || level != k-2 || len(pl.Levels[level].Actions) != 1 {
		return false
	}
	op := pl.Levels[level].Actions[0].Op
	return op == plan.OpIntersect || op == plan.OpSubtract
}

// finish counts a leaf or returns the node's candidates, which must match
// the reference's; a nil result means the node is done (leaf or dead end).
// At a leaf, LeafCount and the set Candidates builds must both agree
// with the reference's merged leaf set.
func (d *diffChecker) finish(n *Node, rn *refNode) []uint32 {
	d.tb.Helper()
	rc := d.ref.candidates(rn)
	if n.Level == d.e.Plan.K()-2 {
		got := d.e.LeafCount(n)
		if got != uint64(len(rc)) {
			d.tb.Fatalf("leaf %v: count %d, reference %d", rn.verts, got, len(rc))
		}
		if set := d.e.Candidates(n); !slices.Equal(set, rc) {
			d.tb.Fatalf("leaf %v: Candidates %v (count %d), reference %v", rn.verts, set, got, rc)
		}
		d.count += got
		return nil
	}
	cands := d.e.Candidates(n)
	if !slices.Equal(cands, rc) {
		d.tb.Fatalf("node %v: candidates %v, reference %v", rn.verts, cands, rc)
	}
	if len(cands) == 0 {
		return nil
	}
	return cands
}

// groupedWalk drives the engine as the FINGERS PE does: up to group
// siblings extend back to back from the top frame, children push frames
// in order, and a frame's node is released when the frame pops.
func (d *diffChecker) groupedWalk(group int) {
	type frame struct {
		n     *Node
		rn    *refNode
		cands []uint32
		next  int
	}
	var stack []frame
	for v := 0; v < d.e.G.NumVertices(); v++ {
		n, rn := d.task(nil, nil, uint32(v))
		if cands := d.finish(n, rn); cands != nil {
			stack = append(stack, frame{n, rn, cands, 0})
		} else {
			d.e.Release(n)
		}
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.next == len(top.cands) {
				d.e.Release(top.n)
				stack = stack[:len(stack)-1]
				continue
			}
			end := min(top.next+group, len(top.cands))
			members := top.cands[top.next:end]
			top.next = end
			parent, rparent := top.n, top.rn
			for _, c := range members {
				n, rn := d.task(parent, rparent, c)
				if cands := d.finish(n, rn); cands != nil {
					stack = append(stack, frame{n, rn, cands, 0})
				} else {
					d.e.Release(n)
				}
			}
		}
	}
}

// dfsWalk drives the engine as the FlexMiner PE does: strict DFS over a
// stack of work items, with a release marker below each interior node's
// candidate items.
func (d *diffChecker) dfsWalk() {
	type item struct {
		release bool
		n       *Node
		rn      *refNode
		cand    uint32
	}
	for v := 0; v < d.e.G.NumVertices(); v++ {
		stack := []item{{cand: uint32(v)}} // no parent: the root's Start
		for len(stack) > 0 {
			it := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if it.release {
				d.e.Release(it.n)
				continue
			}
			child, rchild := d.task(it.n, it.rn, it.cand)
			cands := d.finish(child, rchild)
			if cands == nil {
				d.e.Release(child)
				continue
			}
			stack = append(stack, item{release: true, n: child})
			for i := len(cands) - 1; i >= 0; i-- {
				stack = append(stack, item{n: child, rn: rchild, cand: cands[i]})
			}
		}
	}
}

// assertMarksClean fails unless the engine's mark bitset holds exactly
// the marked source set.
func assertMarksClean(tb testing.TB, e *Engine) {
	tb.Helper()
	want := make([]uint64, len(e.marks))
	setops.Mark(want, e.marked)
	if !slices.Equal(e.marks, want) {
		tb.Fatalf("mark bitset holds bits beyond its %d-element source", len(e.marked))
	}
}

// diffPatterns are the timing grid's patterns: intersect-only (tc, 4cl),
// intersect and subtract from one source (tt), and postponed ancestors
// peeled by anti-subtraction (cyc); plus wedge without symmetry
// breaking, whose counted leaf subtraction has a used vertex inside its
// window that the count must exclude.
var diffPatterns = []struct {
	name string
	opts plan.Options
}{{"tc", plan.Options{}}, {"tt", plan.Options{}}, {"cyc", plan.Options{}}, {"4cl", plan.Options{}},
	{"wedge", plan.Options{NoSymmetryBreaking: true}}}

// TestEngineTaskInfoMatchesMerge is the differential test of the engine's
// adaptive kernels: every SetOpExec of every task — Kind, Short, Long,
// LongVertex and Result — must equal the plain merge walk's, on
// random graphs, under the default hub threshold, a median-degree one
// (dense rows in play) and one above every degree (none), driven both in
// FINGERS-style sibling groups and in FlexMiner's DFS with node release,
// plus the stale-mark sequence of checkStaleMark. Across the runs the
// counted leaves must take each of their three kernels.
func TestEngineTaskInfoMatchesMerge(t *testing.T) {
	t.Run("stale-mark", checkStaleMark)
	var leaves KernelStats
	graphs := []*graph.Graph{
		gen.PowerLawCluster(160, 5, 0.5, 3),
		gen.PowerLawCluster(120, 12, 0.3, 8), // long lists: galloping and dense rows
		gen.ErdosRenyi(90, 500, 5),
		gen.Star(24), // |N(hub)| ≥ 16·|src|: the gallop branch
	}
	for gi, g := range graphs {
		for _, dp := range diffPatterns {
			pl := plan.MustCompile(mustPattern(t, dp.name), dp.opts)
			want := CountOracle(g, pl)
			for _, th := range []int{0, midHubThreshold(g, g.NumVertices()), g.NumVertices() + 1} {
				for _, mode := range diffModes {
					t.Run(fmt.Sprintf("g%d/%s/hub%d/%s", gi, dp.name, th, mode), func(t *testing.T) {
						d := newDiffChecker(t, g, pl, th)
						runDiffWalk(d, mode)
						if d.count != want {
							t.Errorf("count %d, oracle %d", d.count, want)
						}
						if d.e.marks != nil {
							assertMarksClean(t, d.e)
						}
						leaves.CountBits += d.e.stats.CountBits
						leaves.CountGallop += d.e.stats.CountGallop
						leaves.CountProbe += d.e.stats.CountProbe
					})
				}
			}
		}
	}
	if leaves.CountBits == 0 || leaves.CountGallop == 0 || leaves.CountProbe == 0 {
		t.Errorf("counted leaf kernels: %d dense-row, %d galloping, %d probed; want each run", leaves.CountBits, leaves.CountGallop, leaves.CountProbe)
	}
}

// runDiffWalk drives d in the named mode: "grouped/1" and "grouped/4"
// (FINGERS sibling groups of that size) or "dfs" (FlexMiner).
func runDiffWalk(d *diffChecker, mode string) {
	switch mode {
	case "grouped/1":
		d.groupedWalk(1)
	case "grouped/4":
		d.groupedWalk(4)
	default:
		d.dfsWalk()
	}
}

var diffModes = []string{"grouped/1", "grouped/4", "dfs"}

// FuzzEngineTaskInfo runs the differential check of
// TestEngineTaskInfoMatchesMerge on fuzzed power-law graphs (up to 97
// vertices), patterns, hub thresholds (0 = the default) and drive modes.
func FuzzEngineTaskInfo(f *testing.F) {
	for pi := range diffPatterns {
		for mode := range diffModes {
			f.Add(int64(3), uint8(158), uint8(4), uint8(5), uint8(pi), uint8(0), uint8(mode))
			f.Add(int64(8), uint8(118), uint8(11), uint8(3), uint8(pi), uint8(6), uint8(mode))
		}
	}
	f.Add(int64(17), uint8(60), uint8(7), uint8(5), uint8(3), uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n, mPer, triad, pat, hub, mode uint8) {
		g := gen.PowerLawCluster(uint32(n%96)+2, int(mPer%12)+1, float64(triad%11)/10, seed)
		dp := diffPatterns[int(pat)%len(diffPatterns)]
		pl := plan.MustCompile(mustPattern(t, dp.name), dp.opts)
		d := newDiffChecker(t, g, pl, int(hub))
		runDiffWalk(d, diffModes[int(mode)%len(diffModes)])
		if want := CountOracle(g, pl); d.count != want {
			t.Errorf("count %d, oracle %d", d.count, want)
		}
		if d.e.marks != nil {
			assertMarksClean(t, d.e)
		}
	})
}

// checkStaleMark pins the marked-source slot's private copy. A level-2 task marks its source S, a level-1 set living in a node
// buffer; the node is released, and its buffer is refilled by a sibling
// extension through a dense row, which leaves the slot alone. The next
// probe evicts S: unmarking the refilled buffer instead of S's copy would
// leave S's bits set and leak them into the new result.
func checkStaleMark(t *testing.T) {
	g := gen.PowerLawCluster(2000, 8, 0.5, 17)
	pl := plan.MustCompile(mustPattern(t, "4cl"), plan.Options{})
	th := midHubThreshold(g, g.NumVertices())
	adj := graph.NewHybridAdj(g, th)
	ref := &refWalk{g: g, pl: pl}
	probed := func(src []uint32, v uint32) bool {
		return adj.DenseRow(v) == nil && len(src) > 0 && len(g.Neighbors(v)) < setops.GallopSkewThreshold*len(src)
	}
	// leaks reports whether some w ∈ (S − S') ∩ N(z) is alone in its
	// bitset word among S ∪ S', so that only unmarking S itself clears it.
	leaks := func(s, s2, nz []uint32) bool {
		for _, w := range setops.IntersectInto(nil, setops.SubtractInto(nil, s, s2), nz) {
			alone := true
			for _, u := range slices.Concat(s, s2) {
				if u != w && u>>6 == w>>6 {
					alone = false
				}
			}
			if alone {
				return true
			}
		}
		return false
	}
	// Find a, x, y, h, z such that S = S3 after (a, x), S' = S3 after
	// (a, h), y probes S, h is dense, z probes S', and a stale bit of S
	// would leak into S' ∩ N(z). |N(x)| ≥ |N(a)| sizes S's buffer for
	// S', so the refill happens in place.
	for a := 0; a < g.NumVertices(); a++ {
		r0 := ref.root()
		ra, _ := ref.extend(r0, uint32(a))
		c0 := ref.candidates(ra)
		for _, x := range c0 {
			rx, _ := ref.extend(ra, x)
			s := rx.sets[3]
			cx := ref.candidates(rx)
			if g.Degree(x) < g.Degree(uint32(a)) || len(cx) == 0 || !probed(s, cx[0]) {
				continue
			}
			for _, h := range c0 {
				if h == x || adj.DenseRow(h) == nil {
					continue
				}
				rh, _ := ref.extend(ra, h)
				s2 := rh.sets[3]
				for _, z := range ref.candidates(rh) {
					if !probed(s2, z) || !leaks(s, s2, g.Neighbors(z)) {
						continue
					}
					d := newDiffChecker(t, g, pl, th)
					na, rna := d.task(nil, nil, uint32(a))
					nx, rnx := d.task(na, rna, x)
					ny, _ := d.task(nx, rnx, cx[0])
					buf := &nx.sets[3][0]
					d.e.Release(ny)
					d.e.Release(nx)
					nh, rnh := d.task(na, rna, h)
					if nh != nx || &nh.sets[3][0] != buf {
						t.Fatal("pool did not hand the released node's buffer back")
					}
					d.task(nh, rnh, z)
					assertMarksClean(t, d.e)
					return
				}
			}
		}
	}
	t.Fatal("no stale-mark sequence found in the test graph")
}
