// Package simreport holds the BENCH_sim.json schema shared by its
// producer (cmd/simbench) and its consumers (internal/trend and
// cmd/fingerstat). Keeping the types in one
// place is what lets the trend viewer parse every vintage of committed
// report: v1 (no geomeans), v2 (allocation profile + regression gate),
// and the current header with provenance metadata.
package simreport

import (
	"encoding/json"
	"fmt"
	"strings"

	"fingers/internal/mem"
	"fingers/internal/telemetry"
)

// Schema is the current report schema tag: v3 adds the sharded-mode
// columns (shards, per-shard wall times, sharded speedup) and the
// single-core warning annotation; v4 adds the representation-mix
// columns (per-cell dense rows, bitmap rows, and hybrid storage bytes
// of the graph's adaptive set-storage view). All v3/v4 fields are
// omitempty, so a v4 report without them is byte-compatible with v2 and
// older readers ignore the extras; readers accept any
// "fingers/simbench/" prefix.
//
// Reports written while the bounded-lag parallel engine existed also
// carry parallel-engine columns (parallel cycles, wall times, speedups,
// divergence, workers/window). The engine has been removed and so have
// those fields; the decoder ignores them, so those reports still parse.
const Schema = "fingers/simbench/v4"

// SchemaPrefix matches every vintage of simbench report.
const SchemaPrefix = "fingers/simbench/"

// Cell is one (graph, pattern) benchmark measurement.
type Cell struct {
	Graph   string `json:"graph"`
	Pattern string `json:"pattern"`

	SimCycles       mem.Cycles `json:"sim_cycles"`        // serial makespan
	SerialWallNS    int64      `json:"serial_wall_ns"`    // serial engine wall time
	SerialCyclesSec float64    `json:"serial_cycles_sec"` // simulated cycles per wall second

	// Allocation profile of the best-time repetition (runtime.MemStats
	// deltas around the run: mallocs, bytes, and stop-the-world pause).
	SerialAllocs     uint64 `json:"serial_allocs"`
	SerialAllocBytes uint64 `json:"serial_alloc_bytes"`
	SerialGCPauseNS  uint64 `json:"serial_gc_pause_ns"`

	// Sharded-mode columns (v3), present only when the run was measured
	// with -shards > 1. ShardWallsNS is each shard's own wall time in
	// shard order — the spread is the root-partition balance signal.
	ShardedWallNS   int64   `json:"sharded_wall_ns,omitempty"`
	ShardWallsNS    []int64 `json:"shard_walls_ns,omitempty"`
	ShardedSpeedup  float64 `json:"sharded_speedup,omitempty"`
	ShardedCountsOK bool    `json:"sharded_counts_identical,omitempty"`
	ShardedAllocs   uint64  `json:"sharded_allocs,omitempty"`

	// Representation-mix columns (v4): how the graph's adaptive hybrid
	// set-storage view classified this cell's graph. DenseRows is the
	// hub tier, BitmapRows the compressed-bitmap tier, and HybridBytes
	// the total non-array storage (graph.Footprint.HybridBytes). Zero/absent in pre-v4 reports.
	DenseRows   int   `json:"dense_rows,omitempty"`
	BitmapRows  int   `json:"bitmap_rows,omitempty"`
	HybridBytes int64 `json:"hybrid_bytes,omitempty"`
}

// Report is the BENCH_sim.json schema. The embedded telemetry.Meta
// contributes started_at / wall_ns / git_rev / host_cores / gomaxprocs
// / run_tag; reports written before the header round-trip unchanged
// (every meta field is omitempty) and old readers ignore the extras.
type Report struct {
	Schema string `json:"schema"`
	telemetry.Meta
	PEs int `json:"pes"`
	// Runs is the number of measured repetitions each cell is the
	// median of (1 = single-shot, the pre-header behaviour).
	Runs int `json:"runs,omitempty"`
	// Shards is the effective shard count of the sharded measurements
	// (v3); zero when the run was not sharded.
	Shards        int     `json:"shards,omitempty"`
	Cells         []Cell  `json:"cells"`
	GeomeanSerCPS float64 `json:"geomean_serial_cycles_sec"`
	// GeomeanShardSpeed is the sharded/serial wall-clock speedup geomean
	// (v3); zero when the run was not sharded.
	GeomeanShardSpeed float64 `json:"geomean_shard_speedup,omitempty"`
	Note              string  `json:"note"`
	// Warning flags a measurement that cannot support a scaling verdict
	// — today, a single-core host (host_cores or GOMAXPROCS of 1), where
	// every wall-clock speedup is an artifact of time slicing.
	Warning string `json:"warning,omitempty"`
}

// Parse decodes one report, rejecting JSON whose schema tag is not a
// simbench report (a `go test -json` event stream, say).
func Parse(raw []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, err
	}
	if !strings.HasPrefix(r.Schema, SchemaPrefix) {
		return nil, fmt.Errorf("schema %q is not a %s* report", r.Schema, SchemaPrefix)
	}
	return &r, nil
}
