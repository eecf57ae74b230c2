package mine

import (
	"context"
	"errors"
	"testing"

	"fingers/internal/datasets"
	"fingers/internal/graph"
	"fingers/internal/graph/gen"
	"fingers/internal/pattern"
	"fingers/internal/plan"
	"fingers/internal/simerr"
)

// Stats returns the kernel-dispatch counters accumulated so far.
func (c *Counter) Stats() KernelStats { return c.stats }

// Total returns the number of dispatched operations (marking a set or
// decoding a result is not one).
func (s KernelStats) Total() uint64 {
	return s.Merge + s.Gallop + s.Bits + s.Probe + s.Subset + s.Word + s.Derive +
		s.CountGallop + s.CountBits + s.CountProbe + s.CountWord
}

// sampleRoots picks a bounded root sample that still exercises every
// kernel class: a stride through the whole ID range (whose subtrees
// touch hub vertices as candidates) plus a few heavier-than-average
// roots, capped at 4× the mean degree so the oracle side of the
// cross-check doesn't spend minutes inside one hub's tree.
func sampleRoots(g *graph.Graph, stride, heavy int) []uint32 {
	n := g.NumVertices()
	var roots []uint32
	step := n / stride
	if step < 1 {
		step = 1
	}
	for v := 0; v < n; v += step {
		roots = append(roots, uint32(v))
	}
	cap := int(4 * g.AvgDegree())
	for _, v := range g.DegreeOrder() {
		if heavy == 0 {
			break
		}
		if g.Degree(v) <= cap {
			roots = append(roots, v)
			heavy--
		}
	}
	return roots
}

// TestAdaptiveFullCountsMatchOracle compares whole-graph counts on the
// cache-resident datasets for the cheap benchmark patterns, covering the
// root loop itself (not just sampled subtrees).
func TestAdaptiveFullCountsMatchOracle(t *testing.T) {
	for _, d := range datasets.Small() {
		g := d.Graph()
		for _, name := range []string{"tc", "tt", "cyc", "dia"} {
			p, err := pattern.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			pl := plan.MustCompile(p, plan.Options{})
			got := Count(g, pl)
			want := CountOracle(g, pl)
			if got != want {
				t.Errorf("%s/%s: adaptive %d, oracle %d", d.Name, name, got, want)
			}
			if par := CountParallel(g, pl, 4); par != want {
				t.Errorf("%s/%s: parallel %d, oracle %d", d.Name, name, par, want)
			}
		}
	}
}

// TestForcedHubKernels runs the forced grid with every vertex in the
// dense tier (hub threshold 1), so the dense-row kernels run on graphs
// small enough to brute-force.
func TestForcedHubKernels(t *testing.T) {
	checkForcedView(t, func(g *graph.Graph) *graph.HybridAdj { return graph.NewHybridAdj(g, 1) }, func(st KernelStats) string {
		// Edge-induced star/path plans dispatch no set ops at all
		// (init-only schedules); only demand dense-row kernels (element
		// probes or word-wise) where ops ran.
		if st.Total() > 0 && st.Bits+st.CountBits+st.Word+st.CountWord == 0 {
			return "ops ran but dense-row kernels never dispatched"
		}
		return ""
	})
}

// TestCounterSteadyStateAllocs verifies the tentpole's zero-allocation
// claim: after one warm-up pass grows the scratch arenas, mining any
// root allocates nothing — on a sparse power-law graph (array and
// mark-and-probe kernels) and on a 40%-dense graph with every vertex in
// the dense tier, whose candidate sets are word-parallel bitsets.
func TestCounterSteadyStateAllocs(t *testing.T) {
	sparse := gen.PowerLawCluster(2000, 8, 0.5, 11)
	dense := gen.ErdosRenyi(200, 8000, 7)
	for _, w := range []struct {
		name     string
		g        *graph.Graph
		adj      *graph.HybridAdj
		patterns []string
	}{
		{"sparse", sparse, sparse.Hybrid(), []string{"tc", "4cl", "tt", "cyc", "house"}},
		{"dense", dense, graph.NewHybridAdj(dense, 1), []string{"4cl", "tt", "cyc"}},
	} {
		for _, name := range w.patterns {
			p, err := pattern.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			pl := plan.MustCompile(p, plan.Options{})
			c := newCounter(w.g, pl, w.adj)
			for v := 0; v < w.g.NumVertices(); v++ {
				c.Root(uint32(v)) // warm up arenas
			}
			avg := testing.AllocsPerRun(10, func() {
				for v := 0; v < 200; v++ {
					c.Root(uint32(v))
				}
			})
			if avg != 0 {
				t.Errorf("%s %s: %v allocs per 200 steady-state roots, want 0", w.name, name, avg)
			}
		}
	}
}

// FuzzCounterMatchesOracle mines a random connected pattern of 3–5
// vertices, vertex- or edge-induced, on a random small power-law graph
// with the Counter at a fuzzed hub threshold (0 is the default, 1 makes
// every vertex dense), and compares the count with CountOracle. The
// pattern's edges are bits of a fuzz word over its vertex pairs; a
// disconnected draw gains the path 0–1–…–(k−1).
func FuzzCounterMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(5), uint8(5), uint8(1), uint16(0b1111), false, uint8(0))     // tt
	f.Add(int64(2), uint8(40), uint8(6), uint8(8), uint8(2), uint16(0b11111111), false, uint8(1)) // derives
	f.Add(int64(4), uint8(45), uint8(4), uint8(6), uint8(2), uint16(0b111110), false, uint8(9))   // derives
	f.Add(int64(3), uint8(50), uint8(3), uint8(2), uint8(1), uint16(0b111111), true, uint8(12))   // 4cl
	f.Add(int64(5), uint8(63), uint8(7), uint8(10), uint8(1), uint16(0b111110), false, uint8(1))  // dia: subtract leaf below bitset nodes
	f.Fuzz(func(t *testing.T, seed int64, n, mPer, triad, size uint8, edges uint16, edgeInduced bool, hub uint8) {
		g := gen.PowerLawCluster(uint32(n%64)+2, int(mPer%8)+1, float64(triad%11)/10, seed)
		k := int(size%3) + 3
		var es [][2]int
		bit := 0
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if edges>>bit&1 == 1 {
					es = append(es, [2]int{i, j})
				}
				bit++
			}
		}
		p := pattern.New(k, es)
		if !p.IsConnected() {
			for i := 0; i+1 < k; i++ {
				es = append(es, [2]int{i, i + 1})
			}
			p = pattern.New(k, es)
		}
		pl, err := plan.Compile(p, plan.Options{EdgeInduced: edgeInduced})
		if err != nil {
			t.Fatal(err)
		}
		c := newCounter(g, pl, graph.NewHybridAdj(g, int(hub)))
		if got, want := countAll(c, g), CountOracle(g, pl); got != want {
			t.Errorf("%v edgeInduced=%v hub=%d: counter %d, oracle %d", p, edgeInduced, hub, got, want)
		}
		assertUnmarked(t, c)
	})
}

// TestCountParallelRace drives the work-stealing scheduler with many
// workers and tiny chunks so the race detector sees real contention on
// the shared cursor (CI runs the suite with -race).
func TestCountParallelRace(t *testing.T) {
	g := gen.PowerLawCluster(600, 6, 0.5, 3)
	pl := plan.MustCompile(pattern.Triangle(), plan.Options{})
	want := Count(g, pl)
	for _, workers := range []int{2, 4, 16, 1000} {
		if got := CountParallel(g, pl, workers); got != want {
			t.Errorf("workers=%d: %d, want %d", workers, got, want)
		}
	}
}

// TestCountCtxCancellation checks that a cancelled context stops the
// scheduler early and is reported, and that an uncancelled run is exact.
func TestCountCtxCancellation(t *testing.T) {
	g := gen.PowerLawCluster(3000, 8, 0.5, 5)
	pl := plan.MustCompile(pattern.Clique(4), plan.Options{})
	want := Count(g, pl)

	for _, workers := range []int{1, 4} {
		got, err := CountCtx(context.Background(), g, pl, workers)
		if err != nil || got != want {
			t.Errorf("workers=%d: count %d err %v, want %d <nil>", workers, got, err, want)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		got, err = CountCtx(ctx, g, pl, workers)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: cancelled err = %v", workers, err)
		}
		if se, ok := simerr.As(err); !ok || se.Engine != "miner" || !se.IsCancellation() {
			t.Errorf("workers=%d: cancelled err = %v, want miner SimError cancellation", workers, err)
		}
		if got > want {
			t.Errorf("workers=%d: partial count %d exceeds total %d", workers, got, want)
		}
	}
}

// TestCountEmptyGraph covers the degenerate scheduler inputs.
func TestCountEmptyGraph(t *testing.T) {
	g := graph.FromEdges(0, nil)
	pl := plan.MustCompile(pattern.Triangle(), plan.Options{})
	if got := Count(g, pl); got != 0 {
		t.Errorf("empty graph Count = %d", got)
	}
	if got := CountParallel(g, pl, 8); got != 0 {
		t.Errorf("empty graph CountParallel = %d", got)
	}
}
