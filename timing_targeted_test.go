package fingers_test

import (
	"path/filepath"
	"testing"

	"fingers"
)

// targetedCell is a timingCell under the name of the configuration that
// produced it.
type targetedCell struct {
	Config string `json:"config"`
	timingCell
}

// TestTimingTargetedGolden pins, in a second timing golden, the FINGERS
// configurations the default grid leaves unreached: a fixed group size of
// one, 48 IUs under the iso-area rule of Figure 12 (shorter long
// segments), two shards merged into one report, and a private cache small
// enough that candidate sets spill through the shared cache. It also pins
// a multi-plan run, 3-motif counting, on every architecture: the order in
// which a PE starts the trunks of several plans from one root is reached
// by no single-pattern cell. internal/flexminer pins FlexMiner's spill in
// its own golden: the façade no longer configures FlexMiner PEs.
// Regenerate with `go test -run TestTimingTargetedGolden -update .`.
func TestTimingTargetedGolden(t *testing.T) {
	g := goldenGraphs[0].g()
	pat, err := fingers.PatternByName("tt")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := fingers.CompilePlan(pat, fingers.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spill := fingers.DefaultAcceleratorConfig()
	spill.PrivateCacheBytes = 64
	group1 := fingers.DefaultAcceleratorConfig()
	group1.GroupSize = 1
	configs := []struct {
		name string
		opt  fingers.SimOption
	}{
		{"fingers-group1", fingers.WithAcceleratorConfig(group1)},
		{"fingers-ius48", fingers.WithAcceleratorConfig(fingers.DefaultAcceleratorConfig().WithIUs(48))},
		{"fingers-shards2", fingers.WithShards(2)},
		{"fingers-spill", fingers.WithAcceleratorConfig(spill)},
	}
	var cells []targetedCell
	for _, c := range configs {
		rep, err := fingers.Simulate(fingers.ArchFingers, g, []*fingers.Plan{pl},
			fingers.WithPEs(goldenPEs), fingers.WithSharedCache(goldenCacheBytes), c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cells = append(cells, targetedCell{c.name, newTimingCell(fingers.ArchFingers.String(), goldenGraphs[0].name, "tt", rep.Result)})
	}
	motif, err := fingers.CompileMotif(3, fingers.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range goldenArchs {
		rep, err := fingers.Simulate(arch, g, motif.Plans,
			fingers.WithPEs(goldenPEs), fingers.WithSharedCache(goldenCacheBytes))
		if err != nil {
			t.Fatalf("%s motif3: %v", arch, err)
		}
		cells = append(cells, targetedCell{"motif3", newTimingCell(arch.String(), goldenGraphs[0].name, "motif3", rep.Result)})
	}
	checkGolden(t, filepath.Join("testdata", "timing.targeted.golden.json"), cells)
}
