package exp

import (
	"fmt"
	"strings"

	"fingers"
	"fingers/internal/area"
	"fingers/internal/datasets"
	"fingers/internal/mem"
	"fingers/internal/plan"
)

// Table1 renders the dataset table (paper Table 1): published originals
// beside the synthetic analogues actually mined here.
func Table1() string { return datasets.Table1() }

// Table2 renders the PE area breakdown and iso-area chip sizing (paper
// Table 2 and §6.1).
func Table2() string { return area.Table2(fingers.DefaultAcceleratorConfig()) }

// Fig9 reproduces Figure 9: single-PE speedup of FINGERS over FlexMiner
// across all benchmark patterns and graphs.
func Fig9(opts Options) *SpeedupGrid {
	grid := newGrid("Figure 9: single-PE speedup, FINGERS vs FlexMiner", opts.patterns(), opts.graphs())
	cells := gridCells(opts.patterns(), opts.graphs())
	out := make([]SpeedupCell, len(cells))
	done := make([]bool, len(cells))
	opts.runCells(len(cells), func(i int) {
		c := cells[i]
		fi := opts.simulate(fingers.ArchFingers, "fig9", c, fingers.DefaultAcceleratorConfig(), 1, opts.cacheBytes()).Result
		fm := opts.simulate(fingers.ArchFlexMiner, "fig9", c, fingers.DefaultAcceleratorConfig(), 1, opts.cacheBytes()).Result
		out[i] = SpeedupCell{Fingers: fi, Flex: fm, Speedup: fi.Speedup(fm)}
		done[i] = true
	})
	fillGrid(grid, cells, out, done)
	return grid
}

// Fig10 reproduces Figure 10: overall speedup of the 20-PE FINGERS chip
// over the 40-PE FlexMiner chip (iso-area, §6.3).
func Fig10(opts Options) *SpeedupGrid {
	fiPEs, fmPEs := opts.fingersPEs(), opts.flexPEs()
	title := fmt.Sprintf("Figure 10: overall speedup, FINGERS %d PEs vs FlexMiner %d PEs", fiPEs, fmPEs)
	grid := newGrid(title, opts.patterns(), opts.graphs())
	cells := gridCells(opts.patterns(), opts.graphs())
	out := make([]SpeedupCell, len(cells))
	done := make([]bool, len(cells))
	opts.runCells(len(cells), func(i int) {
		c := cells[i]
		fi := opts.simulate(fingers.ArchFingers, "fig10", c, fingers.DefaultAcceleratorConfig(), fiPEs, opts.cacheBytes()).Result
		fm := opts.simulate(fingers.ArchFlexMiner, "fig10", c, fingers.DefaultAcceleratorConfig(), fmPEs, opts.cacheBytes()).Result
		out[i] = SpeedupCell{Fingers: fi, Flex: fm, Speedup: fi.Speedup(fm)}
		done[i] = true
	})
	fillGrid(grid, cells, out, done)
	return grid
}

// fig11Graphs is the subset shown in Figure 11 (Mi, Pa, Or behave like
// As, Yo, Lj respectively, §6.4).
func fig11Graphs(opts Options) []*datasets.Dataset {
	if opts.Quick {
		return datasets.Small()[:1]
	}
	var out []*datasets.Dataset
	for _, n := range []string{"As", "Yo", "Lj"} {
		d, err := datasets.ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, d)
	}
	return out
}

// Fig11 reproduces Figure 11: the speedup contributed by branch-level
// parallelism, measured by toggling the pseudo-DFS task-group order on a
// single FINGERS PE.
func Fig11(opts Options) *SpeedupGrid {
	graphsList := fig11Graphs(opts)
	grid := newGrid("Figure 11: speedup from branch-level parallelism (pseudo-DFS on vs off)",
		opts.patterns(), graphsList)
	off := fingers.DefaultAcceleratorConfig()
	off.PseudoDFS = false
	cells := gridCells(opts.patterns(), graphsList)
	out := make([]SpeedupCell, len(cells))
	done := make([]bool, len(cells))
	opts.runCells(len(cells), func(i int) {
		c := cells[i]
		with := opts.simulate(fingers.ArchFingers, "fig11", c, fingers.DefaultAcceleratorConfig(), 1, opts.cacheBytes()).Result
		without := opts.simulate(fingers.ArchFingers, "fig11-strict-dfs", c, off, 1, opts.cacheBytes()).Result
		out[i] = SpeedupCell{Fingers: with, Flex: without, Speedup: with.Speedup(without)}
		done[i] = true
	})
	fillGrid(grid, cells, out, done)
	return grid
}

// Fig12Point is one IU-count measurement of Figure 12.
type Fig12Point struct {
	IUs     int
	SegLen  int
	Speedup float64 // versus the 1-IU iso-area configuration of its series
	Cycles  mem.Cycles
}

// Fig12Series is one pattern's scaling curve.
type Fig12Series struct {
	Pattern   string
	Unlimited bool
	Points    []Fig12Point
}

// Fig12Result is the PE-scalability study of Figure 12 on the Yo graph.
type Fig12Result struct {
	Graph  string
	Series []Fig12Series
}

// Fig12IUCounts is the swept IU counts of Figure 12.
var Fig12IUCounts = []int{1, 2, 4, 8, 16, 24, 48}

// Fig12 reproduces Figure 12: single-PE scalability in the number of IUs
// under the iso-area rule (#IUs × s_l constant) for 4cl, cyc and tt, plus
// the unlimited-area tt series.
func Fig12(opts Options) *Fig12Result {
	d, err := datasets.ByName("Yo")
	if err != nil {
		panic(err)
	}
	if opts.Quick {
		d = datasets.Small()[1] // Mi: fastest graph with real structure
	}
	res := &Fig12Result{Graph: d.Name}
	type series struct {
		pattern   string
		unlimited bool
	}
	sweeps := []series{{"4cl", false}, {"cyc", false}, {"tt", false}, {"tt", true}}
	if opts.Quick {
		sweeps = []series{{"tt", false}}
	}
	res.Series = make([]Fig12Series, len(sweeps))
	for si, sw := range sweeps {
		res.Series[si] = Fig12Series{
			Pattern:   sw.pattern,
			Unlimited: sw.unlimited,
			Points:    make([]Fig12Point, len(Fig12IUCounts)),
		}
	}
	// Every (series, IU count) simulation is independent; only the
	// speedup normalization needs the 1-IU baseline, so it is derived
	// after the parallel sweep.
	opts.runCells(len(sweeps)*len(Fig12IUCounts), func(i int) {
		sw := sweeps[i/len(Fig12IUCounts)]
		pi := i % len(Fig12IUCounts)
		n := Fig12IUCounts[pi]
		plans, err := plan.ForBenchmark(sw.pattern)
		if err != nil {
			panic(err)
		}
		var cfg fingers.AcceleratorConfig
		if sw.unlimited {
			cfg = fingers.DefaultAcceleratorConfig().WithIUsUnlimited(n)
		} else {
			cfg = fingers.DefaultAcceleratorConfig().WithIUs(n)
		}
		r := opts.simulate(fingers.ArchFingers, "fig12", gridCell{sw.pattern, plans, d}, cfg, 1, opts.cacheBytes()).Result
		res.Series[i/len(Fig12IUCounts)].Points[pi] = Fig12Point{
			IUs:    n,
			SegLen: cfg.LongSegLen,
			Cycles: r.Cycles,
		}
	})
	for si := range res.Series {
		base := res.Series[si].Points[0].Cycles
		for pi := range res.Series[si].Points {
			if c := res.Series[si].Points[pi].Cycles; base > 0 && c > 0 {
				res.Series[si].Points[pi].Speedup = float64(base) / float64(c)
			}
		}
	}
	return res
}

// String renders the Figure 12 scaling curves.
func (r *Fig12Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 12: PE scalability vs #IUs (graph %s, speedup over 1 IU)\n", r.Graph)
	fmt.Fprintf(&sb, "%-14s", "#IUs")
	for _, n := range Fig12IUCounts {
		fmt.Fprintf(&sb, "%8d", n)
	}
	sb.WriteString("\n")
	for _, s := range r.Series {
		label := s.Pattern
		if s.Unlimited {
			label += "-unl"
		}
		fmt.Fprintf(&sb, "%-14s", label)
		for _, p := range s.Points {
			fmt.Fprintf(&sb, "%7.2fx", p.Speedup)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Fig13Point is one (capacity, design) miss-rate sample.
type Fig13Point struct {
	PaperCapacityMB float64
	ScaledBytes     int64
	MissRate        float64
}

// Fig13Curve is one graph × design miss curve.
type Fig13Curve struct {
	Graph  string
	Design string // "FINGERS" or "FlexMiner"
	Points []Fig13Point
}

// Fig13Result is the shared-cache study of Figure 13.
type Fig13Result struct {
	Curves []Fig13Curve
}

// Fig13PaperCapacitiesMB is the swept capacities as labeled in the paper;
// the simulated system divides them by datasets.CacheScale to match the
// scaled-down graphs.
var Fig13PaperCapacitiesMB = []float64{2, 4, 8, 16}

// Fig13 reproduces Figure 13: shared-cache miss rate versus capacity for
// the cyc pattern on Mi, Yo and Lj, under both designs at their iso-area
// chip sizes.
func Fig13(opts Options) *Fig13Result {
	graphNames := []string{"Mi", "Yo", "Lj"}
	if opts.Quick {
		graphNames = []string{"Mi"}
	}
	plans, err := plan.ForBenchmark("cyc")
	if err != nil {
		panic(err)
	}
	res := &Fig13Result{}
	nCaps := len(Fig13PaperCapacitiesMB)
	for _, gn := range graphNames {
		res.Curves = append(res.Curves,
			Fig13Curve{Graph: gn, Design: "FINGERS", Points: make([]Fig13Point, nCaps)},
			Fig13Curve{Graph: gn, Design: "FlexMiner", Points: make([]Fig13Point, nCaps)})
	}
	opts.runCells(len(graphNames)*nCaps, func(i int) {
		gn := graphNames[i/nCaps]
		ci := i % nCaps
		d, err := datasets.ByName(gn)
		if err != nil {
			panic(err)
		}
		c := gridCell{"cyc", plans, d}
		mb := Fig13PaperCapacitiesMB[ci]
		scaled := int64(mb * float64(1<<20) / datasets.CacheScale)
		fi := opts.simulate(fingers.ArchFingers, "fig13", c, fingers.DefaultAcceleratorConfig(), opts.fingersPEs(), scaled).Result
		fm := opts.simulate(fingers.ArchFlexMiner, "fig13", c, fingers.DefaultAcceleratorConfig(), opts.flexPEs(), scaled).Result
		res.Curves[2*(i/nCaps)].Points[ci] = Fig13Point{
			PaperCapacityMB: mb, ScaledBytes: scaled, MissRate: fi.SharedCache.MissRate(),
		}
		res.Curves[2*(i/nCaps)+1].Points[ci] = Fig13Point{
			PaperCapacityMB: mb, ScaledBytes: scaled, MissRate: fm.SharedCache.MissRate(),
		}
	})
	return res
}

// String renders the Figure 13 miss curves.
func (r *Fig13Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 13: shared-cache miss rate vs capacity (cyc pattern)\n")
	fmt.Fprintf(&sb, "%-16s", "capacity (paper)")
	for _, mb := range Fig13PaperCapacitiesMB {
		fmt.Fprintf(&sb, "%7.0fMB", mb)
	}
	sb.WriteString("\n")
	for _, c := range r.Curves {
		fmt.Fprintf(&sb, "%-16s", c.Graph+"-"+c.Design)
		for _, p := range c.Points {
			fmt.Fprintf(&sb, "%8.1f%%", 100*p.MissRate)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Table3Row is one pattern's IU utilization on the Mi graph.
type Table3Row struct {
	Pattern     string
	ActiveRate  float64
	BalanceRate float64
}

// Table3Result is the IU utilization study of the paper's Table 3.
type Table3Result struct {
	Graph string
	Rows  []Table3Row
}

// Table3 reproduces Table 3: IU active and balance rates of one FINGERS
// PE running each benchmark on Mi.
func Table3(opts Options) *Table3Result {
	d, err := datasets.ByName("Mi")
	if err != nil {
		panic(err)
	}
	res := &Table3Result{Graph: d.Name}
	names := opts.patterns()
	res.Rows = make([]Table3Row, len(names))
	opts.runCells(len(names), func(i int) {
		name := names[i]
		plans, err := plan.ForBenchmark(name)
		if err != nil {
			panic(err)
		}
		st := opts.simulate(fingers.ArchFingers, "table3", gridCell{name, plans, d}, fingers.DefaultAcceleratorConfig(), 1, opts.cacheBytes()).IU
		res.Rows[i] = Table3Row{
			Pattern:     name,
			ActiveRate:  st.ActiveRate(),
			BalanceRate: st.BalanceRate(),
		}
	})
	return res
}

// String renders Table 3.
func (r *Table3Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 3: IU utilization and load balance in one PE with %s\n", r.Graph)
	fmt.Fprintf(&sb, "%-14s", "")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%8s", row.Pattern)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-14s", "Active Rate")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%7.1f%%", 100*row.ActiveRate)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-14s", "Balance Rate")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%7.1f%%", 100*row.BalanceRate)
	}
	sb.WriteString("\n")
	return sb.String()
}
