package profile

import (
	"slices"
	"strings"
	"testing"

	"fingers/internal/graph/gen"
	"fingers/internal/mine"
	"fingers/internal/pattern"
	"fingers/internal/plan"
)

func TestProfileCountsMatchMiner(t *testing.T) {
	g := gen.PowerLawCluster(400, 5, 0.6, 3)
	for _, name := range []string{"tc", "tt", "cyc", "dia"} {
		p, err := pattern.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pl := plan.MustCompile(p, plan.Options{})
		prof := Run(g, pl, Config{})
		if want := mine.Count(g, pl); prof.Embeddings != want {
			t.Errorf("%s: profile found %d embeddings, want %d", name, prof.Embeddings, want)
		}
		if prof.TotalTasks() == 0 {
			t.Errorf("%s: no tasks recorded", name)
		}
	}
}

// TestCliqueHasNoSetLevelParallelism verifies the paper's §6.2 claim:
// clique plans update one shared candidate set per task (no set-level
// parallelism), while the tailed triangle carries more distinct updates.
func TestCliqueHasNoSetLevelParallelism(t *testing.T) {
	g := gen.PowerLawCluster(400, 6, 0.7, 5)
	clique := Run(g, plan.MustCompile(pattern.Clique(4), plan.Options{}), Config{})
	tt := Run(g, plan.MustCompile(pattern.TailedTriangle(), plan.Options{}), Config{})
	if c := clique.MeanOpsPerTask(); c > 1.01 {
		t.Errorf("4-clique set-level parallelism = %.2f, want ≈ 1 (all sets shared)", c)
	}
	if ttOps := tt.MeanOpsPerTask(); ttOps <= clique.MeanOpsPerTask() {
		t.Errorf("tt set-level (%.2f) not above clique (%.2f)", ttOps, clique.MeanOpsPerTask())
	}
}

// TestDenserGraphMoreSegments verifies that segment-level parallelism
// grows with vertex degree (§3.4: huge neighbor lists divide into more
// workloads).
func TestDenserGraphMoreSegments(t *testing.T) {
	sparse := gen.PowerLawCluster(500, 2, 0.3, 7)
	dense := gen.PowerLawCluster(500, 12, 0.3, 7)
	pl := plan.MustCompile(pattern.TailedTriangle(), plan.Options{})
	ps := Run(sparse, pl, Config{})
	pd := Run(dense, pl, Config{})
	if pd.MeanWorkloadsPerOp() <= ps.MeanWorkloadsPerOp() {
		t.Errorf("dense graph segments (%.2f) not above sparse (%.2f)",
			pd.MeanWorkloadsPerOp(), ps.MeanWorkloadsPerOp())
	}
}

func TestMaxRootsBoundsWork(t *testing.T) {
	g := gen.PowerLawCluster(500, 4, 0.5, 9)
	pl := plan.MustCompile(pattern.Triangle(), plan.Options{})
	full := Run(g, pl, Config{})
	partial := Run(g, pl, Config{MaxRoots: 50})
	if partial.RootsWalked != 50 {
		t.Errorf("roots walked = %d", partial.RootsWalked)
	}
	if partial.TotalTasks() >= full.TotalTasks() {
		t.Error("partial profile did not reduce work")
	}
}

func TestBranchingDecreasesWithDepthForCliques(t *testing.T) {
	// §6.2: branch-level parallelism shrinks as the clique search deepens.
	g := gen.PowerLawCluster(600, 8, 0.8, 11)
	pl := plan.MustCompile(pattern.Clique(5), plan.Options{})
	prof := Run(g, pl, Config{})
	// Compare the first interior level's mean branching with the last's.
	var first, last float64
	seen := false
	for i := range prof.Levels {
		lp := &prof.Levels[i]
		if lp.Branching.Count() == 0 {
			continue
		}
		if !seen {
			first = lp.Branching.Mean()
			seen = true
		}
		last = lp.Branching.Mean()
	}
	if !seen {
		t.Skip("no interior levels (graph too sparse for 5-cliques)")
	}
	if last > first {
		t.Errorf("branching grew with depth: %.2f → %.2f", first, last)
	}
}

func TestProfileRendering(t *testing.T) {
	g := gen.Complete(8)
	pl := plan.MustCompile(pattern.Triangle(), plan.Options{})
	out := Run(g, pl, Config{}).String()
	for _, want := range []string{"parallelism profile", "level", "overall"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.longSeg() != 16 || c.shortSeg() != 4 || c.maxLoad() != 2 {
		t.Errorf("defaults = %d/%d/%d", c.longSeg(), c.shortSeg(), c.maxLoad())
	}
}

// TestSetSizesPinned pins the per-level candidate-set size histograms of
// tc, tt and 4cl on one small graph. Their last extending level's update
// is counted, not built, by the engine, so its sizes come from
// recomputing the operation; the values were recorded while the engine
// still built that set.
func TestSetSizesPinned(t *testing.T) {
	g := gen.PowerLawCluster(300, 6, 0.5, 3)
	want := map[string][][]int64{
		"tc":  {nil, {738, 669, 281, 82, 9}, nil},
		"tt":  {nil, {1477, 1397, 1651, 1262, 790, 464, 75}, {82, 476, 929, 840, 1245, 792, 121}, nil},
		"4cl": {nil, {738, 669, 281, 82, 9}, {1089, 277, 116, 13}, nil},
	}
	for name, levels := range want {
		p, err := pattern.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prof := Run(g, plan.MustCompile(p, plan.Options{}), Config{})
		for i, w := range levels {
			if got := prof.Levels[i].SetSizes.Buckets(); !slices.Equal(got, w) {
				t.Errorf("%s level %d: set-size buckets %v, want %v", name, i, got, w)
			}
		}
	}
}
