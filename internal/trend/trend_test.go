package trend

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fingers/internal/mem"
	"fingers/internal/telemetry"
)

// fixedMTime is the deterministic mtime injector tests use.
func fixedMTime(path string) (time.Time, error) {
	return time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC), nil
}

// writeLog writes records (plus optional raw trailing lines) to a file.
func writeLog(t *testing.T, path string, recs []telemetry.RunRecord, raw ...string) {
	t.Helper()
	var buf bytes.Buffer
	log := telemetry.NewRunLog(&buf)
	for _, r := range recs {
		if err := log.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range raw {
		buf.WriteString(s)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// rec builds one record for series (fingers, As, tc) at a given start
// time offset with the given cycles and wall time.
func rec(minute int, cycles mem.Cycles, wallNS int64) telemetry.RunRecord {
	r := telemetry.RunRecord{
		Arch:    "fingers",
		Graph:   telemetry.GraphInfo{Name: "As", Vertices: 3000},
		Pattern: "tc",
		PEs:     8,
		Cycles:  cycles,
		Count:   100,
		Breakdown: telemetry.Breakdown{
			Compute: cycles * 8 / 2, MemStall: cycles * 8 / 4,
			Overhead: cycles * 8 / 8, Idle: cycles * 8 / 8,
		},
		SharedMissRate: 0.25,
		DRAMBytes:      1 << 20,
	}
	r.StartedAt = time.Date(2026, 8, 1, 10, minute, 0, 0, time.UTC).Format(time.RFC3339)
	r.WallNS = wallNS
	r.RunTag = "t"
	return r
}

func TestScanGroupsAndOrders(t *testing.T) {
	dir := t.TempDir()
	// Two logs, timestamps interleaved, plus a corrupt tail.
	writeLog(t, filepath.Join(dir, "a.jsonl"),
		[]telemetry.RunRecord{rec(0, 1000, 1e6), rec(20, 1200, 1e6)},
		"{\"schema\":\"fingers.run/v1\",\"arch\":\"fing\n")
	writeLog(t, filepath.Join(dir, "b.jsonl"),
		[]telemetry.RunRecord{rec(10, 1100, 1e6)})

	c, err := Scan(dir, ScanOptions{MTime: fixedMTime})
	if err != nil {
		t.Fatal(err)
	}
	if c.Records != 3 || c.RunFiles != 2 {
		t.Fatalf("records=%d files=%d, want 3/2", c.Records, c.RunFiles)
	}
	if len(c.Skips) != 1 || c.Skips[0].File != "a.jsonl" || c.Skips[0].Line != 3 {
		t.Fatalf("skips = %+v", c.Skips)
	}
	k := Key{Arch: "fingers", Graph: "As", Pattern: "tc", PEs: 8}
	pts := c.Points[k]
	if len(pts) != 3 {
		t.Fatalf("series holds %d points", len(pts))
	}
	if pts[0].Cycles != 1000 || pts[1].Cycles != 1100 || pts[2].Cycles != 1200 {
		t.Errorf("points not time-ordered across files: %v %v %v", pts[0].Cycles, pts[1].Cycles, pts[2].Cycles)
	}
	if pts[0].CyclesPerSec != 1000/(1e6/1e9) {
		t.Errorf("cycles/sec = %v", pts[0].CyclesPerSec)
	}
	if f := pts[0].Frac; f.Compute != 0.5 || f.Stall != 0.25 {
		t.Errorf("breakdown fraction = %+v", f)
	}
}

func TestMTimeFallbackOrdering(t *testing.T) {
	dir := t.TempDir()
	// Records without started_at share the file mtime and must keep
	// their append (line) order.
	old := []telemetry.RunRecord{
		{Arch: "fingers", Graph: telemetry.GraphInfo{Name: "Mi"}, Pattern: "tt", Cycles: 10},
		{Arch: "fingers", Graph: telemetry.GraphInfo{Name: "Mi"}, Pattern: "tt", Cycles: 20},
	}
	writeLog(t, filepath.Join(dir, "old.jsonl"), old)
	c, err := Scan(dir, ScanOptions{MTime: fixedMTime})
	if err != nil {
		t.Fatal(err)
	}
	pts := c.Points[Key{Arch: "fingers", Graph: "Mi", Pattern: "tt"}]
	if len(pts) != 2 || !pts[0].FromMTime || pts[0].Cycles != 10 || pts[1].Cycles != 20 {
		t.Fatalf("mtime fallback points wrong: %+v", pts)
	}
}

func TestScanSkipsForeignJSON(t *testing.T) {
	dir := t.TempDir()
	// A go-test event stream: valid JSON, wrong schema.
	if err := os.WriteFile(filepath.Join(dir, "gotest-events.json"),
		[]byte(`{"Time":"2026-08-01T00:00:00Z","Action":"run"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Scan(dir, ScanOptions{MTime: fixedMTime})
	if err != nil {
		t.Fatal(err)
	}
	if c.BenchFiles != 0 || len(c.Skips) != 1 {
		t.Fatalf("foreign JSON not skipped: bench=%d skips=%+v", c.BenchFiles, c.Skips)
	}
}

func TestBenchIngestLegacyMTimeFallback(t *testing.T) {
	dir := t.TempDir()
	legacy := `{"schema":"fingers/simbench/v2","pes":8,"cells":[
	  {"graph":"As","pattern":"tc","serial_cycles_sec":5e6,"speedup":0.55,"workers1_factor":0.6,"divergence_pct":0.02}]}`
	if err := os.WriteFile(filepath.Join(dir, "BENCH_sim.json"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Scan(dir, ScanOptions{MTime: fixedMTime})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Bench) != 1 {
		t.Fatalf("bench cells = %d", len(c.Bench))
	}
	bp := c.Bench[0]
	if !bp.FromMTime || bp.At.IsZero() {
		t.Errorf("legacy report did not fall back to mtime: %+v", bp)
	}
}

// TestBenchIngestMixedVintage scans a directory holding v2, v3, and v4
// reports for the same cell: all must ingest skip-free into a single
// time-ordered series, with the sharded columns populated only from v3
// on and the representation-mix columns only on the v4 point.
func TestBenchIngestMixedVintage(t *testing.T) {
	dir := t.TempDir()
	v2 := `{"schema":"fingers/simbench/v2","started_at":"2026-08-01T09:00:00Z","cells":[
	  {"graph":"As","pattern":"tc","serial_cycles_sec":5e6,"speedup":0.55,"workers1_factor":0.6,"divergence_pct":0.02}]}`
	v3 := `{"schema":"fingers/simbench/v3","started_at":"2026-08-02T09:00:00Z","shards":4,"cells":[
	  {"graph":"As","pattern":"tc","serial_cycles_sec":5.1e6,"speedup":0.56,"workers1_factor":0.61,"divergence_pct":0.02,
	   "sharded_wall_ns":70000000,"shard_walls_ns":[70000000,65000000,68000000,61000000],
	   "sharded_speedup":2.9,"sharded_counts_identical":true,"sharded_allocs":1500}]}`
	v4 := `{"schema":"fingers/simbench/v4","started_at":"2026-08-03T09:00:00Z","cells":[
	  {"graph":"As","pattern":"tc","serial_cycles_sec":5.2e6,"speedup":0.57,"workers1_factor":0.62,"divergence_pct":0.02,
	   "dense_rows":12,"bitmap_rows":340,"hybrid_bytes":51200}]}`
	for name, body := range map[string]string{"v2.json": v2, "v3.json": v3, "v4.json": v4} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Scan(dir, ScanOptions{MTime: fixedMTime})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Skips) != 0 {
		t.Fatalf("mixed-vintage corpus produced skips: %+v", c.Skips)
	}
	if c.BenchFiles != 3 || len(c.Bench) != 3 {
		t.Fatalf("bench files=%d cells=%d, want 3/3", c.BenchFiles, len(c.Bench))
	}
	old, cur, mix := c.Bench[0], c.Bench[1], c.Bench[2]
	if old.Shards != 0 || old.ShardSpeedup != 0 {
		t.Errorf("v2 point carries shard columns: %+v", old)
	}
	if cur.Shards != 4 || cur.ShardSpeedup != 2.9 {
		t.Errorf("v3 shard columns lost: shards=%d speedup=%v", cur.Shards, cur.ShardSpeedup)
	}
	if old.HybridBytes != 0 || cur.HybridBytes != 0 {
		t.Errorf("pre-v4 points carry representation-mix columns: %+v / %+v", old, cur)
	}
	if mix.DenseRows != 12 || mix.BitmapRows != 340 || mix.HybridBytes != 51200 {
		t.Errorf("v4 representation-mix columns lost: %+v", mix)
	}
	m := Build(c, Options{})
	if len(m.Bench) != 1 || len(m.Bench[0].Points) != 3 {
		t.Fatalf("mixed vintages did not merge into one series: %+v", m.Bench)
	}
	sum := m.Summary("")
	if b := sum.Bench[0]; b.Shards != 0 || b.LatestShardSpeedup != 0 {
		t.Errorf("summary shard columns should follow the latest (unsharded v4) point: %+v", b)
	}
	if b := sum.Bench[0]; b.DenseRows != 12 || b.BitmapRows != 340 || b.HybridBytes != 51200 {
		t.Errorf("summary representation-mix columns: %+v", b)
	}
}

// TestRollingAndRegression drives the rolling window end to end: a
// stable series with one big final slowdown keeps its statistics
// aligned and windowed, and the slowdown shows as the newest point's
// distance from the preceding window's mean. The report observes the
// move; it does not judge it.
func TestRollingAndRegression(t *testing.T) {
	dir := t.TempDir()
	stable := make([]telemetry.RunRecord, 0, 6)
	for i := 0; i < 5; i++ {
		stable = append(stable, rec(i, 1000, int64(1e6+float64(i)*1e3))) // ~1e9 cps, tight
	}
	stable = append(stable, rec(10, 1000, 2e6)) // half the cycles/sec
	writeLog(t, filepath.Join(dir, "s.jsonl"), stable)
	c, err := Scan(dir, ScanOptions{MTime: fixedMTime})
	if err != nil {
		t.Fatal(err)
	}
	m := Build(c, Options{Window: 5})
	if len(m.Series) != 1 {
		t.Fatalf("series = %d", len(m.Series))
	}
	s := m.Series[0]
	// Rolling stats aligned and windowed.
	if len(s.Roll) != len(s.Points) {
		t.Fatalf("roll misaligned: %d vs %d", len(s.Roll), len(s.Points))
	}
	if s.Roll[0].SigmaCycles != 0 {
		t.Errorf("single-point window has σ=%v", s.Roll[0].SigmaCycles)
	}
	n := len(s.Points)
	if base, latest := s.Roll[n-2].MeanCPS, s.Points[n-1].CyclesPerSec; latest > 0.55*base {
		t.Errorf("slowdown not visible: latest %v cycles/sec vs preceding mean %v", latest, base)
	}
}

func TestBuildFilters(t *testing.T) {
	dir := t.TempDir()
	a := rec(0, 1000, 1e6)
	b := rec(1, 1000, 1e6)
	b.Arch = "flexminer"
	writeLog(t, filepath.Join(dir, "f.jsonl"), []telemetry.RunRecord{a, b})
	c, err := Scan(dir, ScanOptions{MTime: fixedMTime})
	if err != nil {
		t.Fatal(err)
	}
	if m := Build(c, Options{Arch: "flexminer"}); len(m.Series) != 1 || m.Series[0].Key.Arch != "flexminer" {
		t.Errorf("arch filter failed: %+v", m.Series)
	}
	if m := Build(c, Options{Tag: "nope"}); len(m.Series) != 0 {
		t.Errorf("tag filter failed: %+v", m.Series)
	}
	if m := Build(c, Options{Last: 1}); len(m.Series) != 2 || len(m.Series[0].Points) != 1 {
		t.Errorf("last-N failed")
	}
}

// TestSeriesKeyedByConfig pins the series key: three 1-PE records and
// one 8-PE record of one cell form two series, and the 1-PE series'
// Δ% compares its newest point with 1-PE points only, even though the
// 8-PE run sits between them in time.
func TestSeriesKeyedByConfig(t *testing.T) {
	dir := t.TempDir()
	one := func(minute int, cycles mem.Cycles) telemetry.RunRecord {
		r := rec(minute, cycles, 1e6)
		r.PEs = 1
		return r
	}
	eight := rec(1, 150, 1e6)
	writeLog(t, filepath.Join(dir, "k.jsonl"),
		[]telemetry.RunRecord{one(0, 1000), eight, one(2, 1000), one(3, 1100)})
	c, err := Scan(dir, ScanOptions{MTime: fixedMTime})
	if err != nil {
		t.Fatal(err)
	}
	sum := Build(c, Options{}).Summary("")
	if len(sum.Series) != 2 {
		t.Fatalf("series = %d, want 2 (one per PE count): %+v", len(sum.Series), sum.Series)
	}
	s1, s8 := sum.Series[0], sum.Series[1]
	if s1.PEs != 1 || s1.Points != 3 || s8.PEs != 8 || s8.Points != 1 {
		t.Fatalf("series split wrong: 1-PE %+v, 8-PE %+v", s1.Key, s8.Key)
	}
	if s1.CyclesDeltaPct != 10 {
		t.Errorf("1-PE Δ%% = %v, want 10 (1100 vs the 1-PE mean 1000)", s1.CyclesDeltaPct)
	}
	if s8.CyclesDeltaPct != 0 {
		t.Errorf("lone 8-PE point has Δ%% = %v", s8.CyclesDeltaPct)
	}
	if got := s1.Key.Config(); got != "1pe" {
		t.Errorf("Config() = %q, want \"1pe\"", got)
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := make([]telemetry.RunRecord, 5)
	for i := range recs {
		recs[i] = rec(i, mem.Cycles(1000+i*10), 1e6)
	}
	writeLog(t, filepath.Join(dir, "r.jsonl"), recs)
	bench := `{"schema":"fingers/simbench/v2","started_at":"2026-08-01T09:00:00Z","runs":3,"cells":[
	  {"graph":"As","pattern":"tc","serial_cycles_sec":5e6,"speedup":0.55,"workers1_factor":0.6,"divergence_pct":0.02}]}`
	if err := os.WriteFile(filepath.Join(dir, "BENCH_sim.json"), []byte(bench), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Scan(dir, ScanOptions{MTime: fixedMTime})
	if err != nil {
		t.Fatal(err)
	}
	m := Build(c, Options{})
	sum := m.Summary("")
	if sum.Schema != SummarySchema || len(sum.Series) != 1 || len(sum.Bench) != 1 {
		t.Fatalf("summary shape: %+v", sum)
	}
	var buf bytes.Buffer
	if err := WriteSummary(&buf, sum); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSummary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sum, back) {
		t.Errorf("summary did not round-trip:\n%+v\n%+v", sum, back)
	}
	if sum.Bench[0].Points != 1 || sum.Bench[0].LatestSerialCPS != 5e6 {
		t.Errorf("bench summary: %+v", sum.Bench[0])
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 || std != 2 {
		t.Errorf("meanStd = %v, %v (want 5, 2)", mean, std)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Errorf("empty meanStd = %v, %v", m, s)
	}
}

// Silence unused-import drift if helpers change.
var _ = fmt.Sprintf
