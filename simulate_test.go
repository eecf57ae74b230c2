package fingers_test

import (
	"testing"

	"fingers"
)

// TestSimulateReportShape checks which report fields each option set
// populates, and that both architectures agree on the exact count.
func TestSimulateReportShape(t *testing.T) {
	g := fingers.GeneratePowerLawCluster(400, 5, 0.5, 4)
	pat, err := fingers.PatternByName("tt")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := fingers.CompilePlan(pat, fingers.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plans := []*fingers.Plan{pl}
	want := fingers.Count(g, pl)

	plain, err := fingers.Simulate(fingers.ArchFingers, g, plans, fingers.WithPEs(2))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Result.Count != want {
		t.Errorf("count = %d, want %d", plain.Result.Count, want)
	}
	if plain.PerPE != nil || plain.IU.ActiveRate() != 0 {
		t.Errorf("plain report carries telemetry: %+v", plain)
	}

	stats, err := fingers.Simulate(fingers.ArchFingers, g, plans, fingers.WithPEs(2), fingers.WithStats())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.PerPE) != 2 || stats.IU.ActiveRate() <= 0 {
		t.Errorf("stats report incomplete: PerPE=%d active=%.2f", len(stats.PerPE), stats.IU.ActiveRate())
	}
	if stats.Result.Cycles != plain.Result.Cycles {
		t.Errorf("WithStats changed cycles: %d vs %d", stats.Result.Cycles, plain.Result.Cycles)
	}

	tr := fingers.NewChromeTrace()
	traced, err := fingers.Simulate(fingers.ArchFlexMiner, g, plans, fingers.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if traced.Result.Count != want || len(traced.PerPE) != 1 {
		t.Errorf("traced flexminer: count=%d PerPE=%d", traced.Result.Count, len(traced.PerPE))
	}

	if fingers.ArchFingers.String() != "FINGERS" || fingers.ArchFlexMiner.String() != "FlexMiner" {
		t.Errorf("arch names: %s / %s", fingers.ArchFingers, fingers.ArchFlexMiner)
	}
}

// TestSimulateRejectsDegenerateConfigs: every invalid configuration is
// reported as an error, not a panic or a hang.
func TestSimulateRejectsDegenerateConfigs(t *testing.T) {
	g := fingers.GenerateErdosRenyi(100, 300, 11)
	pat, err := fingers.PatternByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := fingers.CompilePlan(pat, fingers.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plans := []*fingers.Plan{pl}

	cases := []struct {
		name string
		run  func() error
	}{
		{"zero PEs", func() error {
			_, err := fingers.Simulate(fingers.ArchFingers, g, plans, fingers.WithPEs(0))
			return err
		}},
		{"negative PEs", func() error {
			_, err := fingers.Simulate(fingers.ArchFlexMiner, g, plans, fingers.WithPEs(-2))
			return err
		}},
		{"unknown arch", func() error {
			_, err := fingers.Simulate(fingers.Arch(99), g, plans)
			return err
		}},
		{"nil graph", func() error {
			_, err := fingers.Simulate(fingers.ArchFingers, nil, plans)
			return err
		}},
		{"no plans", func() error {
			_, err := fingers.Simulate(fingers.ArchFingers, g, nil)
			return err
		}},
	}
	for _, c := range cases {
		if c.run() == nil {
			t.Errorf("%s: expected an error", c.name)
		}
	}
}
