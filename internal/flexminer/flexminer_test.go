package flexminer

import (
	"context"
	"testing"

	"fingers/internal/accel"
	"fingers/internal/graph"
	"fingers/internal/graph/gen"
	"fingers/internal/mine"
	"fingers/internal/pattern"
	"fingers/internal/plan"
)

func compiled(t testing.TB, name string) []*plan.Plan {
	t.Helper()
	p, err := pattern.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return []*plan.Plan{plan.MustCompile(p, plan.Options{})}
}

// mustChip builds a chip through the validating constructor, failing the
// test on error.
func mustChip(tb testing.TB, cfg Config, numPEs int, sharedCacheBytes int64, g *graph.Graph, plans []*plan.Plan) *accel.Chip {
	tb.Helper()
	chip, err := accel.NewChip(numPEs, sharedCacheBytes, g, plans, nil, cfg.NewPE)
	if err != nil {
		tb.Fatal(err)
	}
	return chip
}

// mustRun simulates a chip to completion, failing the test on error.
func mustRun(tb testing.TB, c *accel.Chip) accel.Result {
	tb.Helper()
	res, err := c.Run(context.Background(), 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func TestChipCountMatchesReference(t *testing.T) {
	g := gen.PowerLawCluster(350, 5, 0.5, 99)
	for _, name := range []string{"tc", "4cl", "tt", "cyc", "dia"} {
		pls := compiled(t, name)
		want := mine.Count(g, pls[0])
		for _, pes := range []int{1, 3, 8} {
			res := mustRun(t, mustChip(t, DefaultConfig(), pes, 0, g, pls))
			if res.Count != want {
				t.Errorf("%s with %d PEs: count = %d, want %d", name, pes, res.Count, want)
			}
		}
	}
}

func TestTimeAdvancesMonotonically(t *testing.T) {
	g := gen.ErdosRenyi(100, 400, 7)
	pls := compiled(t, "tc")
	res := mustRun(t, mustChip(t, DefaultConfig(), 2, 0, g, pls))
	if res.Cycles <= 0 {
		t.Errorf("cycles = %d", res.Cycles)
	}
	if res.Tasks <= 0 {
		t.Errorf("tasks = %d", res.Tasks)
	}
}

// TestRefetchPenalty: with a tiny private cache, long neighbor lists must
// be refetched per set operation, so the run takes longer — Figure 3's
// motivating inefficiency.
func TestRefetchPenalty(t *testing.T) {
	g := gen.PowerLawCluster(300, 12, 0.4, 5) // high degrees → long lists
	pls := compiled(t, "tt")                  // two ops per task share N(u1)
	big := DefaultConfig()
	small := DefaultConfig()
	small.PrivateCacheBytes = 16 // essentially no private cache
	resBig := mustRun(t, mustChip(t, big, 1, 0, g, pls))
	resSmall := mustRun(t, mustChip(t, small, 1, 0, g, pls))
	if resSmall.Count != resBig.Count {
		t.Fatal("private cache size changed the answer")
	}
	if resSmall.Cycles <= resBig.Cycles {
		t.Errorf("no refetch penalty: small %d ≤ big %d", resSmall.Cycles, resBig.Cycles)
	}
}

// TestMorePEsScale checks coarse-grained scaling of the baseline.
func TestMorePEsScale(t *testing.T) {
	g := gen.PowerLawCluster(500, 5, 0.5, 55)
	pls := compiled(t, "tc")
	one := mustRun(t, mustChip(t, DefaultConfig(), 1, 0, g, pls))
	eight := mustRun(t, mustChip(t, DefaultConfig(), 8, 0, g, pls))
	if eight.Cycles >= one.Cycles {
		t.Errorf("8 PEs (%d) not faster than 1 (%d)", eight.Cycles, one.Cycles)
	}
}

func TestSharedCacheStatsPopulated(t *testing.T) {
	g := gen.PowerLawCluster(300, 5, 0.5, 77)
	pls := compiled(t, "tc")
	res := mustRun(t, mustChip(t, DefaultConfig(), 2, 0, g, pls))
	if res.SharedCache.LineAccesses == 0 {
		t.Error("no shared-cache accesses recorded")
	}
	if res.DRAM.BytesMoved == 0 {
		t.Error("no DRAM traffic recorded")
	}
}

// TestFlexNewChipRejectsNonPositivePEs mirrors the fingers-side check:
// a non-positive PE count is an error, not a panic.
func TestFlexNewChipRejectsNonPositivePEs(t *testing.T) {
	g := gen.PowerLawCluster(50, 3, 0.4, 7)
	pls := compiled(t, "tc")
	for _, n := range []int{0, -3} {
		if _, err := accel.NewChip(n, 0, g, pls, accel.NewRootScheduler(g.NumVertices()), DefaultConfig().NewPE); err == nil {
			t.Errorf("NewChip with %d PEs returned no error", n)
		}
	}
}

// TestFlexStepsAndRoot pins what the frame walk with groups of one must
// keep: every Step that returns true is one task, trees do not
// interleave, and Root names the tree being mined — every embedding of
// root v's tree is found while Root is v.
func TestFlexStepsAndRoot(t *testing.T) {
	g := gen.PowerLawCluster(120, 5, 0.5, 23)
	for _, name := range []string{"tt", "4cl"} {
		pls := compiled(t, name)
		pe := newPE(DefaultConfig(), g, pls, accel.NewRootScheduler(g.NumVertices()))
		found := make([]uint64, g.NumVertices())
		var steps int64
		for prev := uint64(0); pe.Step(); prev = pe.Found {
			steps++
			found[pe.Root] += pe.Found - prev
		}
		if steps != pe.Tasks {
			t.Errorf("%s: %d steps, want one per task = %d", name, steps, pe.Tasks)
		}
		e := mine.NewEngine(g, pls[0])
		for v := range found {
			if want := e.CountFromRoot(uint32(v)); found[v] != want {
				t.Fatalf("%s: %d embeddings found while mining root %d, want %d", name, found[v], v, want)
			}
		}
	}
}
