// Package trend turns the repo's accumulated observability artifacts —
// JSONL fingers.run/v1 record logs and BENCH_sim.json simbench reports
// of every vintage — into time-ordered series, one per run
// configuration, with rolling statistics. It is the analysis layer
// under cmd/fingerstat: ingest a directory tree (Scan), group and order
// the records (Build), then render the resulting Model as terminal
// tables, static HTML/SVG, or the machine-readable fingers.trend/v2
// summary (Summary).
//
// The package observes; it does not judge. Rolling means ±1σ of cycles
// and cycles/sec, breakdown-bucket evolution (compute / stall /
// overhead / idle as fractions of makespan), and shared-cache and DRAM
// traffic are reported per series. Whether a change is slower is
// decided by paired same-host runs (scripts/perf-gate.sh), and whether
// modelled cycles moved by the timing goldens.
package trend

import (
	"fmt"
	"math"
	"strings"
	"time"

	"fingers/internal/telemetry"
)

// Key identifies one trend series: an architecture × graph × pattern
// cell of the evaluation grid at the run configuration its records
// state. Points of one series differ only in when and where they ran,
// so the rolling statistics compare like with like. Knobs a record does
// not carry (ablation parameters, fig12's iso-area switch) stay merged
// under the record's experiment name.
type Key struct {
	Arch             string `json:"arch"`
	Graph            string `json:"graph"`
	Pattern          string `json:"pattern"`
	Experiment       string `json:"experiment,omitempty"`
	PEs              int    `json:"pes,omitempty"`
	IUs              int    `json:"ius,omitempty"`
	SharedCacheBytes int64  `json:"shared_cache_bytes,omitempty"`
	SimShards        int    `json:"sim_shards,omitempty"`
}

// Less orders keys by cell first, then by configuration, for stable
// output.
func (k Key) Less(o Key) bool {
	switch {
	case k.Arch != o.Arch:
		return k.Arch < o.Arch
	case k.Graph != o.Graph:
		return k.Graph < o.Graph
	case k.Pattern != o.Pattern:
		return k.Pattern < o.Pattern
	case k.Experiment != o.Experiment:
		return k.Experiment < o.Experiment
	case k.PEs != o.PEs:
		return k.PEs < o.PEs
	case k.IUs != o.IUs:
		return k.IUs < o.IUs
	case k.SharedCacheBytes != o.SharedCacheBytes:
		return k.SharedCacheBytes < o.SharedCacheBytes
	}
	return k.SimShards < o.SimShards
}

// Config renders the configuration half of the key compactly (for
// example "8pe 16iu 1MiB x4 fig9"), omitting what the records left
// unset; renderers print it next to the cell so rows that share a cell
// stay distinguishable.
func (k Key) Config() string {
	var parts []string
	if k.PEs > 0 {
		parts = append(parts, fmt.Sprintf("%dpe", k.PEs))
	}
	if k.IUs > 0 {
		parts = append(parts, fmt.Sprintf("%diu", k.IUs))
	}
	if k.SharedCacheBytes > 0 {
		parts = append(parts, fmtBytes(k.SharedCacheBytes))
	}
	if k.SimShards > 0 {
		parts = append(parts, fmt.Sprintf("x%d", k.SimShards))
	}
	if k.Experiment != "" {
		parts = append(parts, k.Experiment)
	}
	return strings.Join(parts, " ")
}

// fmtBytes renders a cache capacity in the largest binary unit that
// divides it exactly.
func fmtBytes(b int64) string {
	switch {
	case b%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", b>>20)
	case b%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", b>>10)
	}
	return fmt.Sprintf("%dB", b)
}

// BreakdownFrac is a cycle breakdown normalised to fractions of the
// makespan (the four buckets sum to 1 when the record carried one).
type BreakdownFrac struct {
	Compute  float64 `json:"compute"`
	Stall    float64 `json:"stall"`
	Overhead float64 `json:"overhead"`
	Idle     float64 `json:"idle"`
}

// Frac normalises a raw breakdown. A zero breakdown (a record written
// before attribution existed, or a software-miner record) yields the
// zero fraction, which renderers treat as "no data".
func Frac(b telemetry.Breakdown) BreakdownFrac {
	t := float64(b.Total())
	if t == 0 {
		return BreakdownFrac{}
	}
	return BreakdownFrac{
		Compute:  float64(b.Compute) / t,
		Stall:    float64(b.MemStall) / t,
		Overhead: float64(b.Overhead) / t,
		Idle:     float64(b.Idle) / t,
	}
}

// Zero reports whether the fraction carries no attribution data.
func (f BreakdownFrac) Zero() bool {
	return f.Compute == 0 && f.Stall == 0 && f.Overhead == 0 && f.Idle == 0
}

// Point is one run record projected onto the trend axes.
type Point struct {
	// At is the point's position on the time axis; FromMTime marks it
	// as inferred from file modification time because the record
	// predates the provenance header.
	At        time.Time `json:"at"`
	FromMTime bool      `json:"from_mtime,omitempty"`
	Tag       string    `json:"tag,omitempty"`
	GitRev    string    `json:"git_rev,omitempty"`
	Partial   bool      `json:"partial,omitempty"`
	// Daemon provenance, present only on fingersd-served records:
	// Attempt > 1 marks a run that retried past a transient failure,
	// Recovered one whose job was re-enqueued by journal replay after a
	// crash or drain, ClientID the submitting client. All zero on batch
	// CLI records of any vintage.
	Attempt   int    `json:"attempt,omitempty"`
	ClientID  string `json:"client_id,omitempty"`
	Recovered bool   `json:"recovered,omitempty"`

	Cycles       int64         `json:"cycles"`
	Count        uint64        `json:"count"`
	WallNS       int64         `json:"wall_ns,omitempty"`
	CyclesPerSec float64       `json:"cycles_per_sec,omitempty"`
	MissRate     float64       `json:"miss_rate"`
	DRAMBytes    int64         `json:"dram_bytes"`
	Frac         BreakdownFrac `json:"breakdown"`

	File string `json:"file"`
	Line int    `json:"line"`
}

// BenchPoint is one simbench report cell (or geomean row) on the time
// axis.
type BenchPoint struct {
	At        time.Time `json:"at"`
	FromMTime bool      `json:"from_mtime,omitempty"`
	Tag       string    `json:"tag,omitempty"`
	GitRev    string    `json:"git_rev,omitempty"`
	Runs      int       `json:"runs,omitempty"`

	Graph        string  `json:"graph"`
	Pattern      string  `json:"pattern"`
	SerialCPS    float64 `json:"serial_cycles_sec"`
	SerialAllocs uint64  `json:"serial_allocs"`

	// Sharded-mode columns, present only on simbench v3 cells measured
	// with -shards > 1; zero on every earlier vintage, so mixed
	// directories of v1/v2/v3 reports ingest side by side.
	Shards       int     `json:"shards,omitempty"`
	ShardSpeedup float64 `json:"sharded_speedup,omitempty"`

	// Representation-mix columns (simbench v4): the adaptive hybrid
	// set-storage view's classification of the cell's graph. Zero on
	// every earlier vintage, same mixed-directory contract as above.
	DenseRows   int   `json:"dense_rows,omitempty"`
	BitmapRows  int   `json:"bitmap_rows,omitempty"`
	HybridBytes int64 `json:"hybrid_bytes,omitempty"`

	File string `json:"file"`
}

// meanStd returns the mean and population standard deviation of vs.
func meanStd(vs []float64) (mean, std float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	for _, v := range vs {
		mean += v
	}
	mean /= float64(len(vs))
	for _, v := range vs {
		d := v - mean
		std += d * d
	}
	return mean, math.Sqrt(std / float64(len(vs)))
}
