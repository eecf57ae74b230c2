package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fingers/internal/trend"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testMTime is the injected modification-time clock: legacy artifacts
// get fixed timestamps so goldens do not depend on checkout times, and
// everything else must carry its own provenance header.
func testMTime(path string) (time.Time, error) {
	switch filepath.Base(path) {
	case "runs_v1.jsonl":
		return time.Date(2026, 7, 15, 0, 0, 0, 0, time.UTC), nil
	case "bench_old.json":
		return time.Date(2026, 7, 20, 0, 0, 0, 0, time.UTC), nil
	}
	return time.Time{}, fmt.Errorf("no test mtime for %s", path)
}

func buildModel(t *testing.T) *trend.Model {
	t.Helper()
	c, err := trend.Scan("testdata/corpus", trend.ScanOptions{MTime: testMTime})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return trend.Build(c, trend.Options{})
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden; run with -update and review the diff.\n--- got ---\n%s", name, got)
	}
}

func TestGoldenTerminal(t *testing.T) {
	var buf bytes.Buffer
	renderTerm(&buf, buildModel(t), colorizer{on: false})
	out := buf.String()
	if strings.Contains(out, "\x1b[") {
		t.Fatal("colorizer off must not emit ANSI escapes")
	}
	checkGolden(t, "term.txt", buf.Bytes())
}

func TestGoldenHTML(t *testing.T) {
	var buf bytes.Buffer
	if err := renderHTML(&buf, buildModel(t), ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, banned := range []string{"<script", "http://", "https://", "url("} {
		if strings.Contains(out, banned) {
			t.Errorf("HTML must be self-contained and static: found %q", banned)
		}
	}
	checkGolden(t, "report.html", buf.Bytes())
}

func TestGoldenTrendJSON(t *testing.T) {
	m := buildModel(t)
	var buf bytes.Buffer
	if err := trend.WriteSummary(&buf, m.Summary("")); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trend.json", buf.Bytes())

	// Round-trip: the golden document must parse back into the same
	// summary the model projects.
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "trend.json"))
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := trend.ParseSummary(raw)
	if err != nil {
		t.Fatalf("ParseSummary: %v", err)
	}
	if parsed.Schema != trend.SummarySchema {
		t.Fatalf("schema = %q, want %q", parsed.Schema, trend.SummarySchema)
	}
	if !reflect.DeepEqual(parsed, m.Summary("")) {
		t.Error("summary did not round-trip through fingers.trend/v2 JSON")
	}
}

// TestShardColumnsFromMixedCorpus pins the v3 ingest path through the
// committed corpus: the wv/triangle series mixes v1, v2, and v3
// reports, and only its newest (v3) point carries the shard columns.
func TestShardColumnsFromMixedCorpus(t *testing.T) {
	m := buildModel(t)
	for _, b := range m.Bench {
		if b.Graph != "wv" || b.Pattern != "triangle" {
			continue
		}
		n := len(b.Points)
		if n < 2 {
			t.Fatalf("wv/triangle series has %d points", n)
		}
		last := b.Points[n-1]
		if last.Shards != 4 || last.ShardSpeedup != 2.946 {
			t.Errorf("v3 point shard columns: shards=%d speedup=%v, want 4/2.946", last.Shards, last.ShardSpeedup)
		}
		for _, p := range b.Points[:n-1] {
			if p.Shards != 0 || p.ShardSpeedup != 0 {
				t.Errorf("pre-v3 point %s carries shard columns: %+v", p.File, p)
			}
		}
		return
	}
	t.Fatal("wv series missing from corpus")
}

// TestHybridColumnsFromCorpus pins the v4 ingest path through the
// committed corpus: the wv/clique4 cell comes from a lone v4 report
// whose representation-mix columns must survive into the trend point
// and the summary, while the pre-v4 wv/triangle series carries none.
func TestHybridColumnsFromCorpus(t *testing.T) {
	m := buildModel(t)
	var seen bool
	for _, b := range m.Bench {
		last := b.Points[len(b.Points)-1]
		switch {
		case b.Graph == "wv" && b.Pattern == "clique4":
			seen = true
			if last.DenseRows != 18 || last.BitmapRows != 421 || last.HybridBytes != 74496 {
				t.Errorf("v4 representation-mix columns lost: %+v", last)
			}
		case b.Graph == "wv":
			if last.DenseRows != 0 || last.HybridBytes != 0 {
				t.Errorf("pre-v4 series %s/%s carries representation-mix columns: %+v",
					b.Graph, b.Pattern, last)
			}
		}
	}
	if !seen {
		t.Fatal("wv/clique4 v4 series missing from corpus")
	}
	sum := m.Summary("")
	for _, b := range sum.Bench {
		if b.Graph == "wv" && b.Pattern == "clique4" {
			if b.DenseRows != 18 || b.BitmapRows != 421 || b.HybridBytes != 74496 {
				t.Errorf("summary representation-mix columns: %+v", b)
			}
			return
		}
	}
	t.Fatal("wv/clique4 missing from summary")
}

// TestCorpusAccounting pins what the scanner ingested and skipped:
// three run logs (legacy v1, v2, and a daemon-served v3 with retry and
// crash-recovery provenance), five bench reports (one each of schema
// v1/v3/v4, two v2), one foreign JSON file, one foreign JSONL line, and
// one truncated JSONL tail.
func TestCorpusAccounting(t *testing.T) {
	m := buildModel(t)
	c := m.Corpus
	if c.RunFiles != 3 || c.BenchFiles != 5 {
		t.Errorf("files = %d run / %d bench, want 3 / 5", c.RunFiles, c.BenchFiles)
	}
	if c.Records != 14 {
		t.Errorf("records = %d, want 14", c.Records)
	}
	if len(c.Skips) != 3 {
		t.Fatalf("skips = %d (%v), want 3", len(c.Skips), c.Skips)
	}
	var foreignLine, tornTail, foreignFile bool
	for _, s := range c.Skips {
		switch {
		case s.File == "runs_v2.jsonl" && s.Line > 0 && strings.Contains(s.Reason, "foreign schema"):
			foreignLine = true
		case s.File == "runs_v2.jsonl" && s.Line > 0:
			tornTail = true
		case s.File == "events.json" && s.Line == 0:
			foreignFile = true
		}
	}
	if !foreignLine || !tornTail || !foreignFile {
		t.Errorf("skip classification incomplete: foreignLine=%v tornTail=%v foreignFile=%v (%v)",
			foreignLine, tornTail, foreignFile, c.Skips)
	}
}

// TestDaemonProvenanceCarried pins the daemon-served v3 ingest path:
// attempt, client_id, and recovered_from_crash survive into trend
// points, and the series summary counts retried and recovered runs.
func TestDaemonProvenanceCarried(t *testing.T) {
	m := buildModel(t)
	var s *trend.Series
	for _, sr := range m.Series {
		if sr.Key.Arch == "fingers" && sr.Key.Graph == "wv" && sr.Key.Pattern == "triangle" {
			s = sr
		}
	}
	if s == nil {
		t.Fatal("daemon-served series missing")
	}
	if len(s.Points) != 3 {
		t.Fatalf("daemon series has %d points, want 3", len(s.Points))
	}
	p := s.Points[1]
	if p.Attempt != 2 || !p.Recovered || p.ClientID != "ci" {
		t.Errorf("retried point provenance lost: %+v", p)
	}
	sum := m.Summary("")
	for _, ss := range sum.Series {
		if ss.Arch == "fingers" && ss.Graph == "wv" && ss.Pattern == "triangle" {
			if ss.Retried != 1 || ss.Recovered != 1 || ss.Partial != 1 {
				t.Errorf("summary counters retried=%d recovered=%d partial=%d, want 1/1/1",
					ss.Retried, ss.Recovered, ss.Partial)
			}
			return
		}
	}
	t.Fatal("daemon series missing from summary")
}

// TestSituationFilters exercises the viewer's slicing flags.
func TestSituationFilters(t *testing.T) {
	c, err := trend.Scan("testdata/corpus", trend.ScanOptions{MTime: testMTime})
	if err != nil {
		t.Fatal(err)
	}
	m := trend.Build(c, trend.Options{Arch: "flexminer"})
	if len(m.Series) != 1 || m.Series[0].Key.Arch != "flexminer" {
		t.Errorf("arch filter: got %d series", len(m.Series))
	}
	// Tag filtering drops the legacy untagged records.
	m = trend.Build(c, trend.Options{Tag: "nightly", Arch: "fingers"})
	if len(m.Series) != 1 {
		t.Fatalf("tag filter: got %d series, want 1", len(m.Series))
	}
	if n := len(m.Series[0].Points); n != 5 {
		t.Errorf("tagged points = %d, want 5 (legacy records are untagged)", n)
	}
	m = trend.Build(c, trend.Options{Last: 2, Arch: "fingers", Graph: "mico"})
	if n := len(m.Series[0].Points); n != 2 {
		t.Errorf("-last 2: got %d points", n)
	}
}

// TestRunExitCodes drives the CLI end to end: render all three outputs
// from the committed corpus, then check the -strict gate.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := config{
		dir:      "testdata/corpus",
		htmlPath: filepath.Join(dir, "report.html"),
		jsonPath: filepath.Join(dir, "trend.json"),
		window:   trend.DefaultWindow,
		noColor:  true,
		now:      func() time.Time { return time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC) },
		mtime:    testMTime,
	}
	var out, errb bytes.Buffer
	if code := run(base, &out, &errb); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errb.String())
	}
	for _, p := range []string{base.htmlPath, base.jsonPath} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("output %s missing or empty (err=%v)", p, err)
		}
	}
	raw, err := os.ReadFile(base.jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := trend.ParseSummary(raw)
	if err != nil {
		t.Fatalf("CLI-written summary does not parse: %v", err)
	}
	if sum.GeneratedAt != "2026-08-06T00:00:00Z" {
		t.Errorf("generated_at = %q", sum.GeneratedAt)
	}

	// -json - leaves stdout to the summary alone, so it parses whole.
	piped := base
	piped.htmlPath, piped.jsonPath = "", "-"
	out.Reset()
	errb.Reset()
	if code := run(piped, &out, &errb); code != 0 {
		t.Fatalf("run -json - = %d, stderr: %s", code, errb.String())
	}
	if _, err := trend.ParseSummary(out.Bytes()); err != nil {
		t.Errorf("-json - stdout is not a bare summary: %v", err)
	}
	if !strings.Contains(errb.String(), "RUN-RECORD TRENDS") {
		t.Error("-json - dropped the terminal report instead of moving it to stderr")
	}

	strict := base
	strict.htmlPath, strict.jsonPath = "", ""
	strict.strict = true
	if code := run(strict, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
		t.Errorf("-strict over a corpus with skips: exit %d, want 2", code)
	}
}

func TestParseFlagRejects(t *testing.T) {
	var errb bytes.Buffer
	if _, err := parseFlags([]string{}, &errb); err == nil {
		t.Error("no inputs must be an error")
	}
	if _, err := parseFlags([]string{"-dir", "x", "-window", "0"}, &errb); err == nil {
		t.Error("-window 0 must be an error")
	}
	// The report observes and never judges, so the old verdict flags
	// are unknown.
	for _, f := range []string{"-max-regress-pct=10", "-fail-on-regress"} {
		if _, err := parseFlags([]string{"-dir", "x", f}, &errb); err == nil {
			t.Errorf("%s must be rejected as an unknown flag", f)
		}
	}
}
