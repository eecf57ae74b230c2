package fingers

import (
	"context"
	"testing"

	"fingers/internal/accel"
	"fingers/internal/flexminer"
	"fingers/internal/graph"
	"fingers/internal/graph/gen"
	"fingers/internal/mine"
	"fingers/internal/pattern"
	"fingers/internal/plan"
)

func plansFor(t *testing.T, names ...string) []*plan.Plan {
	t.Helper()
	var out []*plan.Plan
	for _, n := range names {
		p, err := pattern.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, plan.MustCompile(p, plan.Options{}))
	}
	return out
}

// newChip builds a chip through the validating constructor, failing the
// test on error.
func newChip(tb testing.TB, numPEs int, sharedCacheBytes int64, g *graph.Graph, plans []*plan.Plan, sched *accel.RootScheduler, newPE func(accel.PEState) accel.PE) *accel.Chip {
	tb.Helper()
	chip, err := accel.NewChip(numPEs, sharedCacheBytes, g, plans, sched, newPE)
	if err != nil {
		tb.Fatal(err)
	}
	return chip
}

// mustChip builds a FINGERS chip with the default root order.
func mustChip(tb testing.TB, cfg Config, numPEs int, sharedCacheBytes int64, g *graph.Graph, plans []*plan.Plan) *accel.Chip {
	tb.Helper()
	return newChip(tb, numPEs, sharedCacheBytes, g, plans, nil, cfg.NewPE)
}

// mustFlexChip builds a FlexMiner chip with the default root order.
func mustFlexChip(tb testing.TB, cfg flexminer.Config, numPEs int, sharedCacheBytes int64, g *graph.Graph, plans []*plan.Plan) *accel.Chip {
	tb.Helper()
	return newChip(tb, numPEs, sharedCacheBytes, g, plans, nil, cfg.NewPE)
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

var simGraphs = []struct {
	name string
	g    *graph.Graph
}{
	{"plc400", gen.PowerLawCluster(400, 5, 0.5, 13)},
	{"er300", gen.ErdosRenyi(300, 1500, 21)},
	{"star+clique", gen.WithPlantedCliques(gen.Star(200), 6, 5, 4)},
}

// TestChipCountsMatchSoftware is the accelerator's functional correctness
// test: for every pattern and graph the simulated chips must count exactly
// what the software reference miner counts.
func TestChipCountsMatchSoftware(t *testing.T) {
	for _, tc := range simGraphs {
		for _, name := range []string{"tc", "4cl", "tt", "cyc", "dia"} {
			pls := plansFor(t, name)
			want := mine.Count(tc.g, pls[0])
			for _, pes := range []int{1, 4} {
				chip := mustChip(t, DefaultConfig(), pes, 0, tc.g, pls)
				res := mustRun(t, chip)
				if res.Count != want {
					t.Errorf("%s/%s FINGERS %d PEs: count = %d, want %d",
						tc.name, name, pes, res.Count, want)
				}
				if res.Cycles <= 0 && want > 0 {
					t.Errorf("%s/%s: no cycles charged", tc.name, name)
				}
			}
		}
	}
}

func TestFlexMinerCountsMatchSoftware(t *testing.T) {
	for _, tc := range simGraphs {
		for _, name := range []string{"tc", "tt", "cyc"} {
			pls := plansFor(t, name)
			want := mine.Count(tc.g, pls[0])
			chip := mustFlexChip(t, flexminer.DefaultConfig(), 4, 0, tc.g, pls)
			res := mustRun(t, chip)
			if res.Count != want {
				t.Errorf("%s/%s FlexMiner: count = %d, want %d", tc.name, name, res.Count, want)
			}
		}
	}
}

func TestMultiPatternCounts(t *testing.T) {
	mp, err := plan.Motif(3, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.PowerLawCluster(300, 4, 0.5, 8)
	counts := mine.CountMulti(g, mp)
	var want uint64
	for _, c := range counts {
		want += c
	}
	chip := mustChip(t, DefaultConfig(), 2, 0, g, mp.Plans)
	if res := mustRun(t, chip); res.Count != want {
		t.Errorf("3-motif on chip = %d, want %d", res.Count, want)
	}
	fchip := mustFlexChip(t, flexminer.DefaultConfig(), 2, 0, g, mp.Plans)
	if res := mustRun(t, fchip); res.Count != want {
		t.Errorf("3-motif on FlexMiner = %d, want %d", res.Count, want)
	}
}

// TestSinglePESpeedup checks the paper's headline single-PE claim in
// direction: one FINGERS PE must beat one FlexMiner PE on every pattern
// of a reasonably dense graph (§6.2 reports 6.2× average).
func TestSinglePESpeedup(t *testing.T) {
	g := gen.PowerLawCluster(500, 8, 0.6, 17)
	for _, name := range []string{"tc", "4cl", "tt", "cyc", "dia"} {
		pls := plansFor(t, name)
		fm := mustRun(t, mustFlexChip(t, flexminer.DefaultConfig(), 1, 0, g, pls))
		fi := mustRun(t, mustChip(t, DefaultConfig(), 1, 0, g, pls))
		if fi.Count != fm.Count {
			t.Fatalf("%s: counts diverge (%d vs %d)", name, fi.Count, fm.Count)
		}
		speedup := fi.Speedup(fm)
		if speedup <= 1.0 {
			t.Errorf("%s: FINGERS PE speedup = %.2f, want > 1", name, speedup)
		}
	}
}

// TestPseudoDFSHelps reproduces the direction of Figure 11: enabling the
// pseudo-DFS task-group order must not slow the PE down, and should help
// on clique patterns where branch-level parallelism is the main lever.
func TestPseudoDFSHelps(t *testing.T) {
	g := gen.PowerLawCluster(500, 6, 0.6, 23)
	pls := plansFor(t, "tc")
	off := DefaultConfig()
	off.PseudoDFS = false
	resOff := mustRun(t, mustChip(t, off, 1, 0, g, pls))
	resOn := mustRun(t, mustChip(t, DefaultConfig(), 1, 0, g, pls))
	if resOn.Count != resOff.Count {
		t.Fatalf("pseudo-DFS changed the answer: %d vs %d", resOn.Count, resOff.Count)
	}
	if resOn.Cycles > resOff.Cycles {
		t.Errorf("pseudo-DFS slowed tc down: %d > %d", resOn.Cycles, resOff.Cycles)
	}
}

func TestGroupSizeAdapts(t *testing.T) {
	g := gen.PowerLawCluster(300, 5, 0.5, 31)
	pls := plansFor(t, "tc")
	chip := mustChip(t, DefaultConfig(), 1, 0, g, pls)
	mustRun(t, chip)
	pe := chip.PEs[0].(*PE)
	if pe.groupSize() < 1 || pe.groupSize() > pe.cfg.MaxGroupSize {
		t.Errorf("group size out of range: %d", pe.groupSize())
	}
	// Fixed group size must be honored.
	cfg := DefaultConfig()
	cfg.GroupSize = 3
	pe2 := mustChip(t, cfg, 1, 0, g, pls).PEs[0].(*PE)
	if pe2.groupSize() != 3 {
		t.Errorf("fixed group size = %d, want 3", pe2.groupSize())
	}
	// Disabled pseudo-DFS forces single-task groups.
	cfg.PseudoDFS = false
	pe3 := mustChip(t, cfg, 1, 0, g, pls).PEs[0].(*PE)
	if pe3.groupSize() != 1 {
		t.Errorf("strict DFS group size = %d, want 1", pe3.groupSize())
	}
}

func TestIUStatsSane(t *testing.T) {
	g := gen.PowerLawCluster(400, 6, 0.6, 41)
	pls := plansFor(t, "tt")
	chip := mustChip(t, DefaultConfig(), 1, 0, g, pls)
	mustRun(t, chip)
	st := chip.PEs[0].(*PE).Stats()
	active, balance := st.ActiveRate(), st.BalanceRate()
	if active <= 0 || active > 1 {
		t.Errorf("active rate = %v", active)
	}
	if balance <= 0 || balance > 1.0001 {
		t.Errorf("balance rate = %v", balance)
	}
}

func TestIUStatsZeroValue(t *testing.T) {
	var s IUStats
	if s.ActiveRate() != 0 || s.BalanceRate() != 0 {
		t.Error("zero stats should have zero rates")
	}
}

func TestWithIUsIsoArea(t *testing.T) {
	cfg := DefaultConfig()
	for _, n := range []int{1, 2, 4, 8, 16, 24, 48} {
		c := cfg.WithIUs(n)
		if c.NumIUs*c.LongSegLen > 24*16 {
			t.Errorf("iso-area violated at %d IUs: %d × %d", n, c.NumIUs, c.LongSegLen)
		}
		if c.LongSegLen < 1 {
			t.Errorf("segment length vanished at %d IUs", n)
		}
	}
	u := cfg.WithIUsUnlimited(48)
	if u.LongSegLen != cfg.LongSegLen || u.NumIUs != 48 {
		t.Error("unlimited scaling changed segment length")
	}
}

// TestMorePEsFaster checks coarse-grained scaling: more PEs must not be
// slower on a parallel-rich workload.
func TestMorePEsFaster(t *testing.T) {
	g := gen.PowerLawCluster(600, 6, 0.5, 3)
	pls := plansFor(t, "tc")
	one := mustRun(t, mustChip(t, DefaultConfig(), 1, 0, g, pls))
	eight := mustRun(t, mustChip(t, DefaultConfig(), 8, 0, g, pls))
	if eight.Count != one.Count {
		t.Fatalf("PE count changed the answer")
	}
	if eight.Cycles >= one.Cycles {
		t.Errorf("8 PEs (%d cycles) not faster than 1 PE (%d cycles)", eight.Cycles, one.Cycles)
	}
}

// TestMoreIUsFasterWithinPE checks set/segment-level scaling on a pattern
// with large sets (tt): 24 IUs must beat 1 IU under the unlimited-area
// rule.
func TestMoreIUsFasterWithinPE(t *testing.T) {
	g := gen.PowerLawCluster(400, 8, 0.5, 11)
	pls := plansFor(t, "tt")
	slow := mustRun(t, mustChip(t, DefaultConfig().WithIUsUnlimited(1), 1, 0, g, pls))
	fast := mustRun(t, mustChip(t, DefaultConfig(), 1, 0, g, pls))
	if fast.Count != slow.Count {
		t.Fatalf("IU count changed the answer")
	}
	if fast.Cycles >= slow.Cycles {
		t.Errorf("24 IUs (%d) not faster than 1 IU (%d)", fast.Cycles, slow.Cycles)
	}
}

func TestEmptyGraphRuns(t *testing.T) {
	g := graph.NewBuilder(10).Build()
	pls := plansFor(t, "tc")
	res := mustRun(t, mustChip(t, DefaultConfig(), 2, 0, g, pls))
	if res.Count != 0 {
		t.Errorf("count on edgeless graph = %d", res.Count)
	}
}

// TestCustomRootOrderOnBothEngines: FINGERS and FlexMiner chips built with
// a permuted root order find the same embeddings as the default ID-order
// handout (counts are order-independent).
func TestCustomRootOrderOnBothEngines(t *testing.T) {
	g := gen.PowerLawCluster(250, 4, 0.5, 41)
	pls := plansFor(t, "tt")
	base := mustRun(t, mustChip(t, DefaultConfig(), 4, 0, g, pls))

	order := make([]uint32, g.NumVertices())
	for i := range order {
		order[i] = uint32(len(order) - 1 - i) // reverse-ID handout
	}
	fi := mustRun(t, newChip(t, 4, 0, g, pls, accel.NewRootSchedulerWithOrder(order), DefaultConfig().NewPE))
	fm := mustRun(t, newChip(t, 4, 0, g, pls, accel.NewRootSchedulerWithOrder(order), flexminer.DefaultConfig().NewPE))
	if fi.Count != base.Count || fm.Count != base.Count {
		t.Errorf("custom order changed the count: fingers %d flexminer %d, want %d",
			fi.Count, fm.Count, base.Count)
	}
}

// TestNewChipRejectsNonPositivePEs: the chip constructor must report a
// non-positive PE count as an error instead of building a chip that
// silently mines nothing, also when given a custom root scheduler.
func TestNewChipRejectsNonPositivePEs(t *testing.T) {
	g := gen.PowerLawCluster(50, 3, 0.4, 7)
	pls := plansFor(t, "tc")
	for _, n := range []int{0, -3} {
		if _, err := accel.NewChip(n, 0, g, pls, accel.NewRootScheduler(g.NumVertices()), DefaultConfig().NewPE); err == nil {
			t.Errorf("NewChip with %d PEs returned no error", n)
		}
	}
}
