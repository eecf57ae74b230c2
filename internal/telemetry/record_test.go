package telemetry

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fixedRecords builds two deterministic run records (one per arch).
func fixedRecords() []RunRecord {
	return []RunRecord{
		{
			Schema:     RunSchema,
			Arch:       "fingers",
			Experiment: "fig9",
			Graph:      GraphInfo{Name: "Mi", Vertices: 6000, Edges: 25188, AvgDegree: 8.4, MaxDegree: 278},
			Pattern:    "tt", PEs: 2, IUs: 24, SharedCacheBytes: 1 << 20,
			Cycles: 1000, Count: 42, Tasks: 17,
			SharedAccesses: 900, SharedMisses: 90, SharedMissRate: 0.1,
			DRAMAccesses: 12, DRAMBytes: 4096,
			IUActiveRate: 0.25, IUBalanceRate: 0.8,
			Breakdown: Breakdown{Compute: 1200, MemStall: 500, Overhead: 100, Idle: 200},
			PerPE: []PERecord{
				{PE: 0, Cycles: 1000, FinishedAt: 1000, Breakdown: Breakdown{Compute: 700, MemStall: 250, Overhead: 50}, Tasks: 9, Groups: 4, Count: 22},
				{PE: 1, Cycles: 1000, FinishedAt: 800, Breakdown: Breakdown{Compute: 500, MemStall: 250, Overhead: 50, Idle: 200}, Tasks: 8, Groups: 3, Count: 20},
			},
		},
		{
			Schema:  RunSchema,
			Arch:    "flexminer",
			Graph:   GraphInfo{Name: "As", Vertices: 3000, Edges: 29945, AvgDegree: 19.9, MaxDegree: 321},
			Pattern: "tc", PEs: 1, SharedCacheBytes: 1 << 20,
			Cycles: 2500, Count: 7, Tasks: 5,
			Breakdown: Breakdown{Compute: 1700, MemStall: 700, Overhead: 100},
		},
	}
}

// TestRunRecordGoldenRoundTrip checks JSONL encode → decode → deep-equal
// against the committed golden file.
func TestRunRecordGoldenRoundTrip(t *testing.T) {
	recs := fixedRecords()
	var buf bytes.Buffer
	log := NewRunLog(&buf)
	for _, r := range recs {
		if err := log.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	golden := filepath.Join("testdata", "runrecord.golden.jsonl")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run `go test -update` to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("encoded records differ from golden file\ngot:  %s\nwant: %s", buf.Bytes(), want)
	}

	decoded := readClean(t, bytes.NewReader(buf.Bytes()))
	if !reflect.DeepEqual(decoded, recs) {
		t.Errorf("decode(encode(records)) != records\ngot:  %+v\nwant: %+v", decoded, recs)
	}
}

// readClean reads the records of r and fails the test on any line the
// reader skips.
func readClean(t *testing.T, r io.Reader) []RunRecord {
	t.Helper()
	recs, skipped, err := ReadRecordsLenient(r)
	if err != nil || len(skipped) != 0 {
		t.Fatalf("read records: skipped %v, err %v", skipped, err)
	}
	return recs
}

// TestRunLogAppends checks OpenRunLog appends across reopen, the
// property the experiment sweeps rely on.
func TestRunLogAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	for i := 0; i < 2; i++ {
		log, err := OpenRunLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Write(fixedRecords()[i]); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs := readClean(t, f)
	if len(recs) != 2 || recs[0].Arch != "fingers" || recs[1].Arch != "flexminer" {
		t.Fatalf("reopened log holds %d records: %+v", len(recs), recs)
	}
}

// TestWriteRecordFillsSchema checks the schema tag is stamped when the
// caller leaves it empty.
func TestWriteRecordFillsSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecord(&buf, RunRecord{Arch: "fingers"}); err != nil {
		t.Fatal(err)
	}
	recs := readClean(t, &buf)
	if len(recs) != 1 || recs[0].Schema != RunSchema {
		t.Fatalf("schema not stamped: %+v", recs)
	}
}

// TestBreakdownTotalAndString covers the helper arithmetic.
func TestBreakdownTotalAndString(t *testing.T) {
	b := Breakdown{Compute: 50, MemStall: 30, Overhead: 10, Idle: 10}
	if b.Total() != 100 {
		t.Fatalf("Total = %d, want 100", b.Total())
	}
	var acc Breakdown
	acc.Accumulate(b)
	acc.Accumulate(b)
	if acc.Total() != 200 || acc.Compute != 100 {
		t.Fatalf("Accumulate wrong: %+v", acc)
	}
	if s := b.String(); s != "compute 50.0% stall 30.0% overhead 10.0% idle 10.0%" {
		t.Errorf("String = %q", s)
	}
	if s := (Breakdown{}).String(); s != "compute 0% stall 0% overhead 0% idle 0%" {
		t.Errorf("zero String = %q", s)
	}
}
