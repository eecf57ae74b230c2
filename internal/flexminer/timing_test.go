package flexminer

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fingers/internal/graph/gen"
)

var update = flag.Bool("update", false, "rewrite testdata/timing.targeted.golden.json from the current engine")

// timingCell has the fields of the root package's timing cells.
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
}

// TestTimingTargetedGolden pins a FlexMiner run whose private cache is
// small enough that it refetches long neighbor lists and spills candidate
// sets through the shared cache — paths no cell of the root package's
// timing golden reaches. The façade no longer configures FlexMiner PEs,
// so the cell is built here with accel.NewChip; the graph, PE count and
// shared cache are the root golden's plc1500 cell. Regenerate with
// `go test -run TestTimingTargetedGolden -update ./internal/flexminer/`.
func TestTimingTargetedGolden(t *testing.T) {
	g := gen.PowerLawCluster(1500, 5, 0.5, 4)
	cfg := DefaultConfig()
	cfg.PrivateCacheBytes = 64
	r := mustRun(t, mustChip(t, cfg, 2, 32<<10, g, compiled(t, "tt")))
	cells := []timingCell{{
		Arch:        "FlexMiner",
		Graph:       "plc1500",
		Pattern:     "tt",
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
	}}
	got, err := json.MarshalIndent(cells, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "timing.targeted.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
	if !bytes.Equal(got, want) {
		t.Errorf("%s moved:\n got  %s\n want %s", path, got, want)
	}
}
