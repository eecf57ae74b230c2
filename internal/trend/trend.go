// Package trend turns the repo's accumulated observability artifacts —
// JSONL fingers.run/v1 record logs and BENCH_sim.json simbench reports
// of every vintage — into time-ordered per-(arch, graph, pattern)
// series with rolling statistics and self-auditing regression flags.
// It is the analysis layer under cmd/fingerstat: ingest a directory
// tree (Scan), group and order the records (Build), then render the
// resulting Model as terminal tables, static HTML/SVG, or the
// machine-readable fingers.trend/v1 summary (Summary).
//
// The paper's whole evaluation is a grid of per-workload cycle
// breakdowns and speedups; this package is what makes that grid
// comparable across commits: rolling means ±1σ of cycles and
// cycles/sec, breakdown-bucket evolution (compute / stall / overhead /
// idle as fractions of makespan), shared-cache and DRAM traffic
// trends, and per-cell regression flags (fingerstat -max-regress-pct).
package trend

import (
	"math"
	"time"

	"fingers/internal/telemetry"
)

// Key identifies one trend series: an architecture × graph × pattern
// cell of the evaluation grid.
type Key struct {
	Arch    string `json:"arch"`
	Graph   string `json:"graph"`
	Pattern string `json:"pattern"`
}

// Less orders keys lexicographically for stable output.
func (k Key) Less(o Key) bool {
	if k.Arch != o.Arch {
		return k.Arch < o.Arch
	}
	if k.Graph != o.Graph {
		return k.Graph < o.Graph
	}
	return k.Pattern < o.Pattern
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

	PEs          int           `json:"pes,omitempty"`
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

// Regression is one flagged metric movement: the latest point against
// the rolling mean of the preceding window, in the metric's "worse"
// direction. Flagging follows the simbench gate semantics (a relative
// drop beyond MaxRegressPct) tightened by a noise guard: when the
// baseline window has measurable spread, the excursion must also clear
// one standard deviation.
type Regression struct {
	// Metric is "cycles_per_sec", "cycles", or "serial_cycles_sec".
	Metric string `json:"metric"`
	// Latest is the newest point's value; Baseline the rolling mean of
	// the window preceding it; Sigma that window's stddev.
	Latest   float64 `json:"latest"`
	Baseline float64 `json:"baseline"`
	Sigma    float64 `json:"sigma"`
	// DeltaPct is how far Latest moved in the worse direction, as a
	// percentage of Baseline (positive = regressed).
	DeltaPct float64 `json:"delta_pct"`
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

// flagRegress applies the rolling-window/σ heuristic to one metric:
// baseline is the mean of base (the window preceding the latest
// point), and the latest value is flagged when it moved more than
// maxPct in the worse direction AND the move clears the window's ±1σ
// noise band. higherIsWorse selects the direction (cycles up = bad;
// cycles/sec down = bad). Returns nil with fewer than two baseline
// points — a single prior sample has no measurable noise floor.
func flagRegress(metric string, latest float64, base []float64, maxPct float64, higherIsWorse bool) *Regression {
	if len(base) < 2 || latest == 0 {
		return nil
	}
	mean, sigma := meanStd(base)
	if mean == 0 {
		return nil
	}
	delta := (latest - mean) / mean * 100
	if !higherIsWorse {
		delta = -delta
	}
	if delta <= maxPct {
		return nil
	}
	if sigma > 0 && math.Abs(latest-mean) <= sigma {
		return nil
	}
	return &Regression{Metric: metric, Latest: latest, Baseline: mean, Sigma: sigma, DeltaPct: delta}
}
