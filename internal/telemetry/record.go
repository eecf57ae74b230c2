// JSONL run records: one self-describing JSON object per simulated run,
// appended to a log file so sweeps accumulate a machine-readable history
// that downstream tooling (plots, regression checks, the BENCH
// trajectory) can consume without re-running the simulator.

package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"fingers/internal/mem"
)

// RunSchema identifies the record layout; bump on breaking changes.
const RunSchema = "fingers.run/v1"

// GraphInfo is the input graph's Table-1 summary embedded in a record.
type GraphInfo struct {
	Name      string  `json:"name"`
	Vertices  int     `json:"vertices"`
	Edges     int64   `json:"edges"`
	AvgDegree float64 `json:"avg_degree"`
	MaxDegree int     `json:"max_degree"`
	// Hybrid-storage representation mix at the default hub threshold:
	// how many adjacency rows the hybrid view promotes to the dense hub
	// tier and the bitmap tier, and the total bytes those tiers cost.
	// Zero for records predating the
	// hybrid layer (the fields omit when empty).
	DenseRows   int   `json:"dense_rows,omitempty"`
	BitmapRows  int   `json:"bitmap_rows,omitempty"`
	HybridBytes int64 `json:"hybrid_bytes,omitempty"`
}

// PERecord is one PE's slice of a run: its cycle attribution (the four
// buckets sum to Cycles, the chip makespan), local finishing time, and
// work counters.
type PERecord struct {
	PE         int        `json:"pe"`
	Cycles     mem.Cycles `json:"cycles"`
	FinishedAt mem.Cycles `json:"finished_at"`
	Breakdown  Breakdown  `json:"breakdown"`
	Tasks      int64      `json:"tasks"`
	Groups     int64      `json:"groups,omitempty"`
	Count      uint64     `json:"count"`
}

// RunRecord is the machine-readable summary of one simulated run.
type RunRecord struct {
	Schema           string     `json:"schema"`
	Arch             string     `json:"arch"`
	Experiment       string     `json:"experiment,omitempty"`
	Graph            GraphInfo  `json:"graph"`
	Pattern          string     `json:"pattern"`
	PEs              int        `json:"pes"`
	IUs              int        `json:"ius,omitempty"`
	SharedCacheBytes int64      `json:"shared_cache_bytes"`
	Cycles           mem.Cycles `json:"cycles"`
	Count            uint64     `json:"count"`
	Tasks            int64      `json:"tasks"`
	// Partial marks a run cut short by cancellation: Cycles is the
	// simulated horizon reached and Count covers only the mined prefix.
	Partial bool `json:"partial,omitempty"`
	// Meta is the optional provenance header (start time, wall time,
	// git revision, host shape, run tag). Its fields marshal inline and
	// omitempty, so records predating it round-trip unchanged.
	Meta
	SharedAccesses int64      `json:"shared_line_accesses"`
	SharedMisses   int64      `json:"shared_line_misses"`
	SharedMissRate float64    `json:"shared_miss_rate"`
	DRAMAccesses   int64      `json:"dram_accesses"`
	DRAMBytes      int64      `json:"dram_bytes"`
	IUActiveRate   float64    `json:"iu_active_rate,omitempty"`
	IUBalanceRate  float64    `json:"iu_balance_rate,omitempty"`
	Breakdown      Breakdown  `json:"breakdown"`
	PerPE          []PERecord `json:"per_pe,omitempty"`
}

// WriteRecord appends one record to w as a single JSONL line.
func WriteRecord(w io.Writer, rec RunRecord) error {
	if rec.Schema == "" {
		rec.Schema = RunSchema
	}
	return json.NewEncoder(w).Encode(rec)
}

// SkippedLine reports one JSONL line the lenient reader rejected: its
// 1-based line number and a short reason (a JSON syntax error from a
// truncated flush, or a foreign schema tag).
type SkippedLine struct {
	Line int
	Err  string
}

// ReadRecordsLenient decodes every non-blank JSONL line of r as a run
// record. Lines that fail to parse or carry a non-run-record schema are
// skipped, not fatal, and returned with their line numbers so a
// directory scan can report what it dropped. A partial log from a
// SIGINT'd run (the CLIs flush records mid-sweep) therefore yields
// every intact record plus a skip entry for the torn tail. The error
// return covers only reader-level failures (I/O, an over-long line).
func ReadRecordsLenient(r io.Reader) ([]RunRecord, []SkippedLine, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var out []RunRecord
	var skipped []SkippedLine
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(bytes.TrimSpace(b)) == 0 {
			continue
		}
		var rec RunRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			skipped = append(skipped, SkippedLine{Line: line, Err: err.Error()})
			continue
		}
		if rec.Schema != "" && !strings.HasPrefix(rec.Schema, "fingers.run/") {
			skipped = append(skipped, SkippedLine{Line: line, Err: fmt.Sprintf("foreign schema %q", rec.Schema)})
			continue
		}
		out = append(out, rec)
	}
	return out, skipped, sc.Err()
}

// RunLog is a concurrency-safe append-only JSONL sink.
type RunLog struct {
	mu    sync.Mutex
	w     io.Writer
	c     io.Closer
	stamp Meta
}

// SetMeta attaches a session-wide provenance stamp: every subsequent
// Write fills the record's empty Meta fields from it (per-record values
// win). Call once after OpenRunLog, typically with HostMeta().
func (l *RunLog) SetMeta(m Meta) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stamp = m
}

// NewRunLog wraps any writer (e.g. a bytes.Buffer in tests).
func NewRunLog(w io.Writer) *RunLog { return &RunLog{w: w} }

// OpenRunLog opens (creating or appending to) the JSONL file at path.
func OpenRunLog(path string) (*RunLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &RunLog{w: f, c: f}, nil
}

// Write appends one record, filling empty provenance fields from the
// SetMeta stamp.
func (l *RunLog) Write(rec RunRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stamp.Fill(&rec.Meta)
	return WriteRecord(l.w, rec)
}

// Close closes the underlying file, if the log owns one.
func (l *RunLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.c != nil {
		return l.c.Close()
	}
	return nil
}
