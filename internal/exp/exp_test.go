package exp

import (
	"strings"
	"testing"

	"fingers"
	"fingers/internal/datasets"
	"fingers/internal/mine"
	"fingers/internal/plan"
)

var quick = Options{Quick: true, FlexPEs: 4, FingersPEs: 2}

// TestPlansFor checks that every benchmark of the paper's list compiles
// into its plan set.
func TestPlansFor(t *testing.T) {
	for _, name := range Benchmarks {
		plans, err := plan.ForBenchmark(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := 1
		if name == "3mc" {
			want = 2
		}
		if len(plans) != want {
			t.Errorf("%s: %d plans, want %d", name, len(plans), want)
		}
	}
	if _, err := plan.ForBenchmark("bogus"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestFig9QuickShape(t *testing.T) {
	grid := Fig9(quick)
	if len(grid.Graphs) != 2 || len(grid.Patterns) != 3 {
		t.Fatalf("quick grid shape %v × %v", grid.Patterns, grid.Graphs)
	}
	for _, p := range grid.Patterns {
		for _, g := range grid.Graphs {
			c := grid.Cells[p][g]
			if c.Fingers.Count != c.Flex.Count {
				t.Errorf("%s/%s: counts diverge", p, g)
			}
			if c.Speedup <= 1 {
				t.Errorf("%s/%s: single-PE speedup %.2f ≤ 1", p, g, c.Speedup)
			}
		}
	}
	if grid.Mean() <= 1 || grid.Max() < grid.Mean() {
		t.Errorf("mean %.2f max %.2f inconsistent", grid.Mean(), grid.Max())
	}
	out := grid.String()
	if !strings.Contains(out, "Figure 9") || !strings.Contains(out, "geomean") {
		t.Errorf("rendering:\n%s", out)
	}
}

func TestFig10QuickIsoArea(t *testing.T) {
	grid := Fig10(quick)
	for _, p := range grid.Patterns {
		for _, g := range grid.Graphs {
			c := grid.Cells[p][g]
			if c.Fingers.Count != c.Flex.Count {
				t.Errorf("%s/%s: counts diverge", p, g)
			}
			if c.Speedup <= 0 {
				t.Errorf("%s/%s: speedup %.2f", p, g, c.Speedup)
			}
		}
	}
}

func TestFig11QuickDirection(t *testing.T) {
	grid := Fig11(quick)
	for _, p := range grid.Patterns {
		for _, g := range grid.Graphs {
			c := grid.Cells[p][g]
			if c.Fingers.Count != c.Flex.Count {
				t.Errorf("%s/%s: pseudo-DFS changed counts", p, g)
			}
			if c.Speedup < 0.95 {
				t.Errorf("%s/%s: pseudo-DFS hurt badly: %.2f", p, g, c.Speedup)
			}
		}
	}
}

func TestFig12QuickMonotoneStart(t *testing.T) {
	r := Fig12(quick)
	if len(r.Series) == 0 {
		t.Fatal("no series")
	}
	s := r.Series[0]
	if len(s.Points) != len(Fig12IUCounts) {
		t.Fatalf("points = %d", len(s.Points))
	}
	if s.Points[0].Speedup != 1.0 {
		t.Errorf("baseline speedup = %v", s.Points[0].Speedup)
	}
	// More IUs must help somewhere in the sweep.
	improved := false
	for _, p := range s.Points[1:] {
		if p.Speedup > 1.1 {
			improved = true
		}
	}
	if !improved {
		t.Error("IU scaling showed no improvement at any point")
	}
	if !strings.Contains(r.String(), "Figure 12") {
		t.Error("rendering broken")
	}
}

func TestFig13QuickRates(t *testing.T) {
	r := Fig13(quick)
	if len(r.Curves) != 2 {
		t.Fatalf("curves = %d", len(r.Curves))
	}
	for _, c := range r.Curves {
		if len(c.Points) != len(Fig13PaperCapacitiesMB) {
			t.Fatalf("%s-%s: %d points", c.Graph, c.Design, len(c.Points))
		}
		for i, p := range c.Points {
			if p.MissRate < 0 || p.MissRate > 1 {
				t.Errorf("%s-%s: miss rate %v", c.Graph, c.Design, p.MissRate)
			}
			if i > 0 && p.MissRate > c.Points[i-1].MissRate+0.02 {
				t.Errorf("%s-%s: miss rate increased with capacity: %v → %v",
					c.Graph, c.Design, c.Points[i-1].MissRate, p.MissRate)
			}
		}
	}
	if !strings.Contains(r.String(), "Figure 13") {
		t.Error("rendering broken")
	}
}

func TestTable3QuickRates(t *testing.T) {
	r := Table3(quick)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.ActiveRate <= 0 || row.ActiveRate > 1 {
			t.Errorf("%s: active rate %v", row.Pattern, row.ActiveRate)
		}
		if row.BalanceRate <= 0 || row.BalanceRate > 1.0001 {
			t.Errorf("%s: balance rate %v", row.Pattern, row.BalanceRate)
		}
	}
	if !strings.Contains(r.String(), "Table 3") {
		t.Error("rendering broken")
	}
}

func TestTables1And2Render(t *testing.T) {
	if !strings.Contains(Table1(), "Orkut") {
		t.Error("Table1 broken")
	}
	if !strings.Contains(Table2(), "Intersect Units") {
		t.Error("Table2 broken")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.flexPEs() != 40 || o.fingersPEs() != 20 {
		t.Errorf("default PEs = %d/%d", o.flexPEs(), o.fingersPEs())
	}
	if o.cacheBytes() != datasets.ScaledSharedCacheBytes {
		t.Errorf("default cache = %d", o.cacheBytes())
	}
	if len(o.graphs()) != 6 || len(o.patterns()) != 7 {
		t.Errorf("default grid %d × %d", len(o.graphs()), len(o.patterns()))
	}
}

// TestCellCountsAgainstReference spot-checks that a full harness cell
// produces the software-reference count.
func TestCellCountsAgainstReference(t *testing.T) {
	d := datasets.Small()[0]
	plans, _ := plan.ForBenchmark("tt")
	want := mine.Count(d.Graph(), plans[0])
	c := gridCell{"tt", plans, d}
	for _, arch := range []fingers.Arch{fingers.ArchFingers, fingers.ArchFlexMiner, fingers.ArchSISA} {
		rep := quick.simulate(arch, "test", c, fingers.DefaultAcceleratorConfig(), 2, quick.cacheBytes())
		if rep.Partial || rep.Result.Count != want {
			t.Errorf("%s: harness count = %d (partial %v), want %d", arch, rep.Result.Count, rep.Partial, want)
		}
	}
}
