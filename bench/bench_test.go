package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fingers/internal/datasets"
)

// smokeConfig runs a workload on graphs shrunk eightfold, one pass long.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 1, trace: trace, work: t.TempDir(),
		scale: 8, setupReps: 1, log: io.Discard,
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadNames() {
		res, err := run(smokeConfig(t, w, false))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w, len(res.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if m := res.Metrics[d.name]; m.Unit != d.unit || !(m.Value > 0) {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w, d.name, m, d.unit)
			}
		}
	}
}

func TestSmokeTracedSumsToProfile(t *testing.T) {
	for _, w := range []string{"sim-thrash", "serve"} {
		cfg := smokeConfig(t, w, true)
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct {
			t.Errorf("%s: traced run not correct", w)
		}
		if len(res.Metrics) != len(perLayer()) {
			t.Errorf("%s: %d per-layer metrics, want %d", w, len(res.Metrics), len(perLayer()))
		}
		var sum float64
		for _, l := range cpuLayers {
			sum += res.Metrics[l+".cpu_s"].Value
		}
		if total := res.Metrics["cpu.total_s"].Value; math.Abs(sum-total) > 1e-9 {
			t.Errorf("%s: per-layer CPU sums to %g, profile total %g", w, sum, total)
		}
		for _, f := range []string{w + ".trace.json", w + ".cpu.prof", "layers.json"} {
			if _, err := os.Stat(filepath.Join(traceDir(cfg), f)); err != nil {
				t.Errorf("%s: %v", w, err)
			}
		}
	}
}

func TestNearestRankPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct {
		p    float64
		want float64
		rank int
	}{
		{5, 15, 1}, {30, 20, 2}, {40, 20, 2}, {50, 35, 3}, {90, 50, 5}, {100, 50, 5},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
		if got := nearestRank(len(xs), c.p); got != c.rank {
			t.Errorf("rank of p%g = %d, want %d", c.p, got, c.rank)
		}
	}
	// p90 of 1000 samples has 100 samples above it; p99 has 10.
	if r90, r99 := nearestRank(1000, 90), nearestRank(1000, 99); 1000-r90 != 100 || 1000-r99 != 10 {
		t.Errorf("ranks of p90/p99 over 1000 samples = %d/%d, want 900/990", r90, r99)
	}
	if percentile(nil, 50) != 0 {
		t.Error("an empty sample set should read 0")
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %g, want 5.5", m)
	}
	if m := median(xs[:9]); m != 6 {
		t.Errorf("odd median = %g, want 6", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if s := relSpread(xs); s != 1 {
		t.Errorf("relSpread = %g, want 1", s)
	}
	if xs[0] != 10 {
		t.Error("statistics must not reorder their input")
	}
}

func TestLeafPackageGrouping(t *testing.T) {
	for fn, want := range map[string]string{
		"fingers/internal/mem.(*Cache).Access":                 "mem",
		"fingers/internal/fingers.(*PE).Step":                  "fingerspe",
		"fingers/internal/graph/gen.PowerLawCluster.func1":     "graph",
		"fingers/internal/pattern.ByName":                      "plan",
		"fingers/internal/exp.NewRunRecordInfo":                "other",
		"fingers.Simulate":                                     "fingers",
		"runtime.mallocgc":                                     "runtime",
		"internal/runtime/maps.(*table).split":                 "runtime",
		"net/http.(*conn).serve":                               "stdlib",
		"encoding/json.(*decodeState).object":                  "stdlib",
		"syscall.Syscall6":                                     "stdlib",
		"vendor/golang.org/x/net/http2/hpack.(*Decoder).Write": "stdlib",
		"main.main":        "other",
		"github.com/x/y.F": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}

	listing := `File: bench
Type: cpu
Duration: 1s, Total samples = 80ms ( 8.00%)
-----------+-------------------------------------------------------
      30ms   fingers/internal/setops.IntersectInto (inline)
             fingers/internal/mine.(*Counter).Root
-----------+-------------------------------------------------------
      20ms   runtime.memmove
             fingers/internal/mem.(*Cache).Access
-----------+-------------------------------------------------------
      20ms   fingers/internal/setops.popcount
-----------+-------------------------------------------------------
      10ms   net/http.(*conn).serve
-----------+-------------------------------------------------------
`
	got, total, err := leafSeconds(strings.NewReader(listing))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"setops": 0.05, "runtime": 0.02, "stdlib": 0.01}
	if len(got) != len(want) {
		t.Errorf("layers = %v, want %v", got, want)
	}
	var sum float64
	for l, v := range got {
		if math.Abs(v-want[l]) > 1e-12 {
			t.Errorf("%s = %g, want %g", l, v, want[l])
		}
		sum += v
	}
	if math.Abs(total-0.08) > 1e-12 || math.Abs(sum-total) > 1e-12 {
		t.Errorf("total %g, layer sum %g, want 0.08 both", total, sum)
	}
}

func TestComparisonRule(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"clear gain on a lower-is-better metric", parent, shift(parent, -20), true, improved},
		{"clear gain on a higher-is-better metric", parent, shift(parent, 20), false, improved},
		{"identical runs", parent, parent, true, noWorse},
		{"worse within the bound", parent, shift(parent, 5), true, noWorse},
		{"worse beyond the bound", parent, shift(parent, 15), true, worse},
		{"higher-is-better drop beyond the bound", parent, shift(parent, -15), false, worse},
		{"spread wider than the bound", noisy, shift(noisy, 5), true, unresolved},
		{"spread wider but a clear gain", noisy, shift(noisy, -90), true, improved},
		{"spread wider but every run better", noisy, []float64{55, 56, 57, 58, 59, 55, 56, 57, 58, 59}, true, noWorse},
	} {
		if _, got := judge(c.a, c.b, c.lowerBetter, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if won, _ := judge(parent, shift(parent, -1), true, 0.1); won != 1 {
		t.Errorf("share of pairs won = %g, want 1", won)
	}
	if won, _ := judge(parent, parent, true, 0.1); won != 0 {
		t.Errorf("ties must count for neither side, got %g", won)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and
// metric lists in step with what the benchmark prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type nameUnit struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []nameUnit              `json:"end_to_end"`
		PerLayer  []nameUnit              `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, code runs %v", names, workloadNames())
	}
	defs := func(xs []nameUnit) []metricDef {
		var out []metricDef
		for _, x := range xs {
			out = append(out, metricDef{x.Name, x.Unit})
		}
		return out
	}
	if got := defs(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end %v, code prints %v", got, endToEnd)
	}
	if got := defs(spec.PerLayer); !reflect.DeepEqual(got, perLayer()) {
		t.Errorf("per_layer %v, code prints %v", got, perLayer())
	}
}

// TestGoldenCoversEveryCell fails when a workload gains or loses a cell
// or job class without the golden file being regenerated.
func TestGoldenCoversEveryCell(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for _, w := range cellWorkloads {
		for _, c := range w.cells {
			want[w.name] = append(want[w.name], c.key())
		}
	}
	for _, s := range serveSpecs() {
		want["serve"] = append(want["serve"], serveKey(s, s.Graph))
	}
	for w, keys := range want {
		var got []string
		for k := range g.Workloads[w] {
			got = append(got, k)
		}
		sort.Strings(got)
		sort.Strings(keys)
		if !reflect.DeepEqual(got, keys) {
			t.Errorf("%s: golden keys %v, workload cells %v", w, got, keys)
		}
	}
}

// TestDefaultSeedIsTheDatasetAnalogues pins the claim that the default
// seed reproduces the repository's dataset analogues.
func TestDefaultSeedIsTheDatasetAnalogues(t *testing.T) {
	for _, name := range []string{"As", "Mi", "Lj", "Or"} {
		d, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := genGraph(name, defaultSeed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Edges(), d.Build().Edges()) {
			t.Errorf("%s: default-seed graph differs from the dataset analogue", name)
		}
	}
}
