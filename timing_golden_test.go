package fingers_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fingers"
)

var update = flag.Bool("update", false, "rewrite the timing goldens under testdata/ from the current engine")

// timingCell is one pinned simulation: every number the serial engine
// reports for a graph × pattern × architecture run. A refactor that moves
// any of them changes the model, not just the code.
type timingCell struct {
	Arch        string `json:"arch"`
	Graph       string `json:"graph"`
	Pattern     string `json:"pattern"`
	Count       uint64 `json:"count"`
	Tasks       int64  `json:"tasks"`
	Cycles      int64  `json:"cycles"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
	DRAMBytes   int64  `json:"dram_bytes"`
	Compute     int64  `json:"compute"`
	MemStall    int64  `json:"mem_stall"`
	Overhead    int64  `json:"overhead"`
	Idle        int64  `json:"idle"`
	// The IU utilization numerators and denominators of Table 3, which
	// only FINGERS cells of the default grid report (omitted elsewhere).
	IUAssignedCycles int64   `json:"iu_assigned_cycles,omitempty"`
	IUTotalCycles    int64   `json:"iu_total_cycles,omitempty"`
	IUBalanceNum     float64 `json:"iu_balance_num,omitempty"`
	IUBalanceDen     float64 `json:"iu_balance_den,omitempty"`
}

// Grid of the timing golden: small enough to run in a couple of seconds,
// with a shared cache small enough that every graph evicts, and two PEs
// so the event loop's interleaving of shared-cache accesses is pinned.
const (
	goldenPEs        = 2
	goldenCacheBytes = 32 << 10
)

var goldenGraphs = []struct {
	name string
	g    func() *fingers.Graph
}{
	{"plc1500", func() *fingers.Graph { return fingers.GeneratePowerLawCluster(1500, 5, 0.5, 4) }},
	{"plc2000", func() *fingers.Graph { return fingers.GeneratePowerLawCluster(2000, 4, 0.7, 9) }},
	{"er800", func() *fingers.Graph { return fingers.GenerateErdosRenyi(800, 8000, 5) }},
}

var (
	goldenPatterns = []string{"tc", "tt", "cyc", "4cl"}
	goldenArchs    = []fingers.Arch{fingers.ArchFingers, fingers.ArchFlexMiner, fingers.ArchSISA}
)

func timingGrid(t *testing.T) []timingCell {
	t.Helper()
	var cells []timingCell
	for _, gg := range goldenGraphs {
		g := gg.g()
		for _, patName := range goldenPatterns {
			pat, err := fingers.PatternByName(patName)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := fingers.CompilePlan(pat, fingers.PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, arch := range goldenArchs {
				rep, err := fingers.Simulate(arch, g, []*fingers.Plan{pl},
					fingers.WithPEs(goldenPEs), fingers.WithSharedCache(goldenCacheBytes), fingers.WithStats())
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", arch, gg.name, patName, err)
				}
				cell := newTimingCell(arch.String(), gg.name, patName, rep.Result)
				cell.IUAssignedCycles = int64(rep.IU.AssignedIUCycles)
				cell.IUTotalCycles = int64(rep.IU.TotalCycles)
				cell.IUBalanceNum = rep.IU.BalanceNum
				cell.IUBalanceDen = rep.IU.BalanceDen
				cells = append(cells, cell)
			}
		}
	}
	return cells
}

// newTimingCell pins every number of one run's result.
func newTimingCell(arch, graph, pattern string, r fingers.SimResult) timingCell {
	return timingCell{
		Arch:        arch,
		Graph:       graph,
		Pattern:     pattern,
		Count:       r.Count,
		Tasks:       r.Tasks,
		Cycles:      int64(r.Cycles),
		CacheHits:   r.SharedCache.LineAccesses - r.SharedCache.LineMisses,
		CacheMisses: r.SharedCache.LineMisses,
		DRAMBytes:   r.DRAM.BytesMoved,
		Compute:     int64(r.Breakdown.Compute),
		MemStall:    int64(r.Breakdown.MemStall),
		Overhead:    int64(r.Breakdown.Overhead),
		Idle:        int64(r.Breakdown.Idle),
	}
}

// TestTimingGolden pins the modelled timing of the serial engine — the
// paper's result — cell by cell, so a refactor cannot move cycles
// silently. Its FINGERS cells also pin the IU active and balance rates'
// numerators and denominators, which no invariant fixes exactly. Regenerate with `go test -run TestTimingGolden -update .`
// only for a deliberate model change, and say so in the change log.
func TestTimingGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "timing.golden.json"), timingGrid(t))
}

// checkGolden compares cells with the golden file at path, cell by cell;
// with -update it first rewrites the file from cells.
func checkGolden[C comparable](t *testing.T, path string, cells []C) {
	t.Helper()
	got, err := json.MarshalIndent(cells, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var wantCells []C
	if err := json.Unmarshal(want, &wantCells); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	if len(wantCells) != len(cells) {
		t.Fatalf("grid has %d cells, golden has %d", len(cells), len(wantCells))
	}
	for i := range cells {
		if cells[i] != wantCells[i] {
			t.Errorf("cell %d moved:\n got  %+v\n want %+v", i, cells[i], wantCells[i])
		}
	}
}

// TestTimingPaperShape asserts the shape of the paper's Fig. 9 on the
// golden grid: at equal PE count FINGERS finishes every graph × pattern
// cell in fewer cycles than FlexMiner, with identical counts, and its
// speedup is higher on the tailed triangle and the 4-cycle than on the
// 4-clique.
func TestTimingPaperShape(t *testing.T) {
	byKey := map[string]timingCell{}
	for _, c := range timingGrid(t) {
		byKey[fmt.Sprintf("%s/%s/%s", c.Arch, c.Graph, c.Pattern)] = c
	}
	for _, gg := range goldenGraphs {
		speedup := map[string]float64{}
		for _, p := range goldenPatterns {
			fi := byKey[fmt.Sprintf("FINGERS/%s/%s", gg.name, p)]
			fm := byKey[fmt.Sprintf("FlexMiner/%s/%s", gg.name, p)]
			if fi.Count != fm.Count {
				t.Errorf("%s/%s: counts differ: FINGERS %d FlexMiner %d", gg.name, p, fi.Count, fm.Count)
			}
			if fi.Cycles >= fm.Cycles {
				t.Errorf("%s/%s: FINGERS %d cycles does not beat FlexMiner %d", gg.name, p, fi.Cycles, fm.Cycles)
			}
			speedup[p] = float64(fm.Cycles) / float64(fi.Cycles)
		}
		for _, p := range []string{"tt", "cyc"} {
			if speedup[p] <= speedup["4cl"] {
				t.Errorf("%s: FINGERS speedup on %s (%.2f) is not above 4cl (%.2f)", gg.name, p, speedup[p], speedup["4cl"])
			}
		}
	}
}
