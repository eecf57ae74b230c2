package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestReadRecordsLenientSkipsCorruptLines checks that intact records
// survive a log containing a truncated flush, a foreign-schema line,
// raw garbage, and blank lines — with skip reasons and line numbers.
func TestReadRecordsLenientSkipsCorruptLines(t *testing.T) {
	var buf bytes.Buffer
	log := NewRunLog(&buf)
	for _, r := range fixedRecords() {
		if err := log.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	good := buf.String()
	lines := strings.SplitAfter(good, "\n")
	input := lines[0] + // line 1: good
		`{"schema":"other.thing/v9","arch":"x"}` + "\n" + // line 2: foreign schema
		"\n" + // line 3: blank (ignored, not counted)
		lines[1][:len(lines[1])/2] + "\n" + // line 4: truncated JSON
		"not json at all\n" + // line 5: garbage
		lines[1] // line 6: good

	recs, skipped, err := ReadRecordsLenient(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Arch != "fingers" || recs[1].Arch != "flexminer" {
		t.Fatalf("got %d records (%+v), want the 2 intact ones", len(recs), recs)
	}
	if len(skipped) != 3 {
		t.Fatalf("skipped %d lines (%+v), want 3", len(skipped), skipped)
	}
	wantLines := []int{2, 4, 5}
	for i, s := range skipped {
		if s.Line != wantLines[i] {
			t.Errorf("skip %d at line %d, want %d (%+v)", i, s.Line, wantLines[i], s)
		}
		if s.Err == "" {
			t.Errorf("skip %d has empty reason", i)
		}
	}
	if !strings.Contains(skipped[0].Err, "other.thing/v9") {
		t.Errorf("foreign-schema skip reason %q does not name the schema", skipped[0].Err)
	}
}

// TestRunLogSetMetaStamps checks session-wide provenance is filled into
// records that lack it while per-record values win.
func TestRunLogSetMetaStamps(t *testing.T) {
	var buf bytes.Buffer
	log := NewRunLog(&buf)
	log.SetMeta(Meta{StartedAt: "2026-08-07T00:00:00Z", GitRev: "abc123", HostCores: 4, GoMaxProcs: 4, RunTag: "session"})

	rec := fixedRecords()[0]
	rec.StartedAt = "2026-08-07T11:22:33Z" // per-record value must win
	rec.WallNS = 77
	if err := log.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := log.Write(fixedRecords()[1]); err != nil {
		t.Fatal(err)
	}

	recs := readClean(t, &buf)
	if recs[0].StartedAt != "2026-08-07T11:22:33Z" || recs[0].WallNS != 77 {
		t.Errorf("per-record meta overwritten: %+v", recs[0].Meta)
	}
	if recs[0].GitRev != "abc123" || recs[0].RunTag != "session" || recs[0].HostCores != 4 {
		t.Errorf("stamp not filled: %+v", recs[0].Meta)
	}
	if recs[1].StartedAt != "2026-08-07T00:00:00Z" || recs[1].GoMaxProcs != 4 {
		t.Errorf("stamp not filled on bare record: %+v", recs[1].Meta)
	}
}

// TestMetaBackwardCompatible checks the two directions of the schema
// contract: a record without meta round-trips byte-identically (old
// writers), and a record with unknown extra fields still parses (new
// writers, old-era reader).
func TestMetaBackwardCompatible(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecord(&buf, fixedRecords()[1]); err != nil {
		t.Fatal(err)
	}
	if s := buf.String(); strings.Contains(s, "started_at") || strings.Contains(s, "run_tag") {
		t.Errorf("zero meta leaked into JSON: %s", s)
	}

	withMeta := `{"schema":"fingers.run/v1","arch":"fingers","pattern":"tc","cycles":10,` +
		`"started_at":"2026-08-07T00:00:00Z","wall_ns":123,"git_rev":"deadbeef","run_tag":"t1",` +
		`"graph":{"name":"As"},"some_future_field":true}` + "\n"
	recs := readClean(t, strings.NewReader(withMeta))
	if recs[0].RunTag != "t1" || recs[0].WallNS != 123 || recs[0].GitRev != "deadbeef" {
		t.Errorf("meta fields not decoded: %+v", recs[0].Meta)
	}
	if ts, ok := recs[0].StartTime(); !ok || !ts.Equal(time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("StartTime = %v, %v", ts, ok)
	}
}

// TestHostMeta sanity-checks the live helper: host shape populated and
// a parseable timestamp.
func TestHostMeta(t *testing.T) {
	m := HostMeta()
	if m.HostCores < 1 || m.GoMaxProcs < 1 {
		t.Errorf("host shape missing: %+v", m)
	}
	if _, ok := m.StartTime(); !ok {
		t.Errorf("StartedAt %q does not parse", m.StartedAt)
	}
	if m.RunTag != "" || m.WallNS != 0 {
		t.Errorf("HostMeta must leave per-run fields empty: %+v", m)
	}
}

// FuzzReadRecordsLenient proves lenient ingest never panics or errors
// on arbitrary input (only reader-level failures may surface, and a
// bytes.Reader has none under the scanner's line cap).
func FuzzReadRecordsLenient(f *testing.F) {
	var buf bytes.Buffer
	log := NewRunLog(&buf)
	for _, r := range fixedRecords() {
		if err := log.Write(r); err != nil {
			f.Fatal(err)
		}
	}
	clean := buf.String()
	f.Add(clean)
	f.Add(clean[:len(clean)/3])                   // torn tail
	f.Add("{\"schema\":\"fingers.run/v1\"\n{]\n") // malformed brace soup
	f.Add("\n\n\n")                               // blanks only
	f.Add("{\"schema\":\"other/v1\"}\n" + clean)  // foreign schema first
	f.Add("{\"cycles\":\"not-a-number\"}\n")      // type mismatch
	f.Add(strings.Repeat("a", 70<<10) + "\n")     // longer than the initial buffer
	f.Fuzz(func(t *testing.T, s string) {
		recs, skipped, err := ReadRecordsLenient(strings.NewReader(s))
		if err != nil && !strings.Contains(err.Error(), "token too long") {
			t.Fatalf("unexpected reader error: %v", err)
		}
		for _, sk := range skipped {
			if sk.Line < 1 {
				t.Fatalf("skip with non-positive line: %+v", sk)
			}
		}
		_ = recs
	})
}

// TestMetaSourceAndJobID checks the service-provenance fields fill from
// the session stamp like every other meta field and that per-record
// values win.
func TestMetaSourceAndJobID(t *testing.T) {
	var buf bytes.Buffer
	log := NewRunLog(&buf)
	log.SetMeta(Meta{Source: "fingersd", RunTag: "svc"})

	rec := fixedRecords()[0]
	rec.JobID = "job-000042"
	if err := log.Write(rec); err != nil {
		t.Fatal(err)
	}
	other := fixedRecords()[1]
	other.Source = "fingersim" // per-record source wins over the stamp
	if err := log.Write(other); err != nil {
		t.Fatal(err)
	}

	recs := readClean(t, &buf)
	if recs[0].Source != "fingersd" || recs[0].JobID != "job-000042" {
		t.Errorf("record 0 meta %+v, want stamped source and its own job id", recs[0].Meta)
	}
	if recs[1].Source != "fingersim" || recs[1].JobID != "" {
		t.Errorf("record 1 meta %+v, want its own source and no job id", recs[1].Meta)
	}
}
