// fingers.trend/v2: the machine-readable projection of a Model, stable
// enough for CI to diff across runs and for golden tests to pin.

package trend

import (
	"encoding/json"
	"io"
	"math"
	"time"
)

// SummarySchema identifies the trend summary layout; bump on breaking
// changes.
//
// v2 keys run-record series by the run configuration (experiment, pes,
// ius, shared_cache_bytes, sim_shards) as well as the cell, and drops
// v1's max_regress_pct, regressions and per-series regression fields.
const SummarySchema = "fingers.trend/v2"

// Summary is the fingers.trend/v2 document.
type Summary struct {
	Schema string `json:"schema"`
	// GeneratedAt is stamped by the caller (empty in golden tests so
	// output is reproducible).
	GeneratedAt string          `json:"generated_at,omitempty"`
	Window      int             `json:"window"`
	Sources     Sources         `json:"sources"`
	Series      []SeriesSummary `json:"series"`
	Bench       []BenchSummary  `json:"bench"`
	Skips       []Skip          `json:"skips,omitempty"`
}

// Sources counts what the scan ingested and dropped.
type Sources struct {
	RunFiles   int `json:"run_files"`
	BenchFiles int `json:"bench_files"`
	Records    int `json:"records"`
	BenchCells int `json:"bench_cells"`
	Skipped    int `json:"skipped"`
}

// SeriesSummary condenses one run-record series: latest values,
// rolling statistics, and breakdown evolution from the first to the
// newest point.
type SeriesSummary struct {
	Key
	Points  int `json:"points"`
	Partial int `json:"partial,omitempty"`
	// Retried counts points whose run took more than one attempt;
	// Recovered counts points whose job was resurrected by journal
	// replay after a daemon crash or drain. Both zero for batch logs.
	Retried   int    `json:"retried,omitempty"`
	Recovered int    `json:"recovered,omitempty"`
	First     string `json:"first,omitempty"`
	Last      string `json:"last,omitempty"`

	LatestCycles int64   `json:"latest_cycles"`
	MeanCycles   float64 `json:"mean_cycles"`
	SigmaCycles  float64 `json:"sigma_cycles"`
	// CyclesDeltaPct is the latest point vs the rolling mean of the
	// preceding window (positive = more cycles).
	CyclesDeltaPct float64 `json:"cycles_delta_pct"`

	LatestCPS float64 `json:"latest_cps,omitempty"`
	MeanCPS   float64 `json:"mean_cps,omitempty"`
	SigmaCPS  float64 `json:"sigma_cps,omitempty"`

	LatestMissRate  float64 `json:"latest_miss_rate"`
	LatestDRAMBytes int64   `json:"latest_dram_bytes"`

	BreakdownFirst  BreakdownFrac `json:"breakdown_first"`
	BreakdownLatest BreakdownFrac `json:"breakdown_latest"`
}

// BenchSummary condenses one simbench cell series.
type BenchSummary struct {
	Graph   string `json:"graph"`
	Pattern string `json:"pattern"`
	Points  int    `json:"points"`
	First   string `json:"first,omitempty"`
	Last    string `json:"last,omitempty"`

	LatestSerialCPS float64 `json:"latest_serial_cps"`
	MeanSerialCPS   float64 `json:"mean_serial_cps"`
	SigmaSerialCPS  float64 `json:"sigma_serial_cps"`
	// Sharded-mode columns of the newest point (simbench v3); zero when
	// the latest report was not sharded.
	Shards             int     `json:"shards,omitempty"`
	LatestShardSpeedup float64 `json:"latest_shard_speedup,omitempty"`
	// Representation-mix columns of the newest point (simbench v4);
	// zero when the latest report predates them.
	DenseRows   int   `json:"dense_rows,omitempty"`
	BitmapRows  int   `json:"bitmap_rows,omitempty"`
	HybridBytes int64 `json:"hybrid_bytes,omitempty"`
}

// round6 trims floats to six decimals so summaries stay readable and
// goldens stay diffable.
func round6(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Round(v*1e6) / 1e6
}

func fmtTime(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339)
}

func roundFrac(f BreakdownFrac) BreakdownFrac {
	return BreakdownFrac{
		Compute:  round6(f.Compute),
		Stall:    round6(f.Stall),
		Overhead: round6(f.Overhead),
		Idle:     round6(f.Idle),
	}
}

// Summary projects the model onto the fingers.trend/v2 schema.
// generatedAt is stamped verbatim; pass "" for reproducible output.
func (m *Model) Summary(generatedAt string) Summary {
	s := Summary{
		Schema:      SummarySchema,
		GeneratedAt: generatedAt,
		Window:      m.Window,
		Series:      []SeriesSummary{},
		Bench:       []BenchSummary{},
		Skips:       m.Corpus.Skips,
	}
	s.Sources = Sources{
		RunFiles:   m.Corpus.RunFiles,
		BenchFiles: m.Corpus.BenchFiles,
		Records:    m.Corpus.Records,
		BenchCells: len(m.Corpus.Bench),
		Skipped:    len(m.Corpus.Skips),
	}
	for _, sr := range m.Series {
		n := len(sr.Points)
		last := sr.Points[n-1]
		roll := sr.Roll[n-1]
		ss := SeriesSummary{
			Key:             sr.Key,
			Points:          n,
			First:           fmtTime(sr.Points[0].At),
			Last:            fmtTime(last.At),
			LatestCycles:    last.Cycles,
			MeanCycles:      round6(roll.MeanCycles),
			SigmaCycles:     round6(roll.SigmaCycles),
			LatestCPS:       round6(last.CyclesPerSec),
			MeanCPS:         round6(roll.MeanCPS),
			SigmaCPS:        round6(roll.SigmaCPS),
			LatestMissRate:  round6(last.MissRate),
			LatestDRAMBytes: last.DRAMBytes,
			BreakdownFirst:  roundFrac(sr.Points[0].Frac),
			BreakdownLatest: roundFrac(last.Frac),
		}
		for _, p := range sr.Points {
			if p.Partial {
				ss.Partial++
			}
			if p.Attempt > 1 {
				ss.Retried++
			}
			if p.Recovered {
				ss.Recovered++
			}
		}
		if n > 1 && sr.Roll[n-2].MeanCycles > 0 {
			ss.CyclesDeltaPct = round6((float64(last.Cycles) - sr.Roll[n-2].MeanCycles) / sr.Roll[n-2].MeanCycles * 100)
		}
		s.Series = append(s.Series, ss)
	}
	for _, b := range m.Bench {
		n := len(b.Points)
		last := b.Points[n-1]
		roll := b.Roll[n-1]
		s.Bench = append(s.Bench, BenchSummary{
			Graph:              b.Graph,
			Pattern:            b.Pattern,
			Points:             n,
			First:              fmtTime(b.Points[0].At),
			Last:               fmtTime(last.At),
			LatestSerialCPS:    round6(last.SerialCPS),
			MeanSerialCPS:      round6(roll.MeanCPS),
			SigmaSerialCPS:     round6(roll.SigmaCPS),
			Shards:             last.Shards,
			LatestShardSpeedup: round6(last.ShardSpeedup),
			DenseRows:          last.DenseRows,
			BitmapRows:         last.BitmapRows,
			HybridBytes:        last.HybridBytes,
		})
	}
	return s
}

// WriteSummary encodes s as indented JSON.
func WriteSummary(w io.Writer, s Summary) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ParseSummary decodes a fingers.trend/v2 document (the golden-test
// round-trip and any CI differ use this).
func ParseSummary(raw []byte) (Summary, error) {
	var s Summary
	err := json.Unmarshal(raw, &s)
	return s, err
}
