package fingers

import (
	"testing"

	"fingers/internal/flexminer"
	"fingers/internal/graph/gen"
)

// TestSimulationDeterministic re-runs identical chip configurations and
// requires identical cycle counts, counts and cache statistics: the
// event-ordered simulation has no hidden nondeterminism, so experiments
// are exactly reproducible.
func TestSimulationDeterministic(t *testing.T) {
	g := gen.PowerLawCluster(300, 5, 0.6, 71)
	pls := plansFor(t, "tt")
	run := func() (a, b interface{}) {
		fi := mustRun(t, mustChip(t, DefaultConfig(), 4, 0, g, pls))
		fm := mustRun(t, mustFlexChip(t, flexminer.DefaultConfig(), 4, 0, g, pls))
		return fi, fm
	}
	fi1, fm1 := run()
	fi2, fm2 := run()
	if fi1 != fi2 {
		t.Errorf("FINGERS runs differ:\n%+v\n%+v", fi1, fi2)
	}
	if fm1 != fm2 {
		t.Errorf("FlexMiner runs differ:\n%+v\n%+v", fm1, fm2)
	}
}

// TestTasksMatchAcrossDesigns: both designs execute the same plans, so
// they perform the same number of extension tasks regardless of PE count
// or scheduling order.
func TestTasksMatchAcrossDesigns(t *testing.T) {
	g := gen.PowerLawCluster(300, 5, 0.6, 73)
	for _, name := range []string{"tc", "tt", "cyc"} {
		pls := plansFor(t, name)
		fi1 := mustRun(t, mustChip(t, DefaultConfig(), 1, 0, g, pls))
		fi8 := mustRun(t, mustChip(t, DefaultConfig(), 8, 0, g, pls))
		fm := mustRun(t, mustFlexChip(t, flexminer.DefaultConfig(), 3, 0, g, pls))
		if fi1.Tasks != fi8.Tasks || fi1.Tasks != fm.Tasks {
			t.Errorf("%s: task counts diverge: %d / %d / %d", name, fi1.Tasks, fi8.Tasks, fm.Tasks)
		}
	}
}

// TestTinyPrivateCacheStillCorrect drives the spill path.
func TestTinyPrivateCacheStillCorrect(t *testing.T) {
	g := gen.PowerLawCluster(300, 8, 0.5, 79)
	pls := plansFor(t, "tt")
	want := mustRun(t, mustChip(t, DefaultConfig(), 1, 0, g, pls))
	cfg := DefaultConfig()
	cfg.PrivateCacheBytes = 64
	small := mustRun(t, mustChip(t, cfg, 1, 0, g, pls))
	if small.Count != want.Count {
		t.Fatalf("spill path changed the answer: %d vs %d", small.Count, want.Count)
	}
	if small.Cycles < want.Cycles {
		t.Errorf("spilling should not be faster: %d < %d", small.Cycles, want.Cycles)
	}
}

// TestDegenerateConfigs exercises boundary configurations.
func TestDegenerateConfigs(t *testing.T) {
	g := gen.PowerLawCluster(150, 4, 0.5, 83)
	pls := plansFor(t, "tc")
	want := mustRun(t, mustChip(t, DefaultConfig(), 1, 0, g, pls)).Count
	cases := []Config{
		DefaultConfig().WithIUs(1),
		DefaultConfig().WithIUsUnlimited(64),
		func() Config { c := DefaultConfig(); c.MaxLoad = 1; return c }(),
		func() Config { c := DefaultConfig(); c.NumDividers = 1; return c }(),
		func() Config { c := DefaultConfig(); c.MaxGroupSize = 1; return c }(),
		func() Config { c := DefaultConfig(); c.LongSegLen = 1; c.ShortSegLen = 1; return c }(),
	}
	for i, cfg := range cases {
		res := mustRun(t, mustChip(t, cfg, 2, 0, g, pls))
		if res.Count != want {
			t.Errorf("config %d: count %d, want %d", i, res.Count, want)
		}
		if res.Cycles <= 0 {
			t.Errorf("config %d: no cycles", i)
		}
	}
}
