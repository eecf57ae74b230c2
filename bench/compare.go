package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of the comparison rule.
const (
	improved   = "improved"
	noWorse    = "no worse"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge applies the comparison rule to one (workload, metric): runs of
// the parent a and of the change b, paired in run order. The change
// improved when it wins at least nine tenths of the pairs, ties counting
// for neither, and the medians differ by more than the parent's
// interquartile range. Otherwise, when the parent's spread is wider than
// the bound the verdict is unresolved unless every run of the change
// reads better than every run of the parent; else the change is worse
// when its median is worse than the parent's by more than the bound.
func judge(a, b []float64, lowerBetter bool, bound float64) (won float64, verdict string) {
	better := func(x, y float64) bool { // x reads better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	pairs := len(a)
	if len(b) < pairs {
		pairs = len(b)
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if pairs > 0 {
		won = float64(wins) / float64(pairs)
	}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	worseBy := ratio(mb-ma, math.Abs(ma))
	if !lowerBetter {
		worseBy = -worseBy
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case better(mb, ma) && won >= 0.9 && math.Abs(mb-ma) > q3-q1:
		return won, improved
	case relSpread(a) > bound && !allBetter:
		return won, unresolved
	case worseBy > bound:
		return won, worse
	}
	return won, noWorse
}

// loadRecords reads every untraced result record in dir, grouped by
// workload and ordered by start time.
func loadRecords(dir string) (map[string][]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]record{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", p, err)
		}
		if rec.Trace == 0 && rec.Workload != "" {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	for _, recs := range out {
		sort.Slice(recs, func(i, j int) bool { return recs[i].StartedAt < recs[j].StartedAt })
	}
	return out, nil
}

// values extracts one metric from every record.
func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareMain implements `bench compare A/ B/`: for every workload and
// end-to-end metric it prints each side's median and quartiles, the
// share of run pairs B won, and the verdict. It exits 1 when any verdict
// is worse.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-bench BENCHMARK.json] A/ B/")
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, err := loadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	bb, err := loadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-12s %-12s %-34s %-34s %8s %6s  %s\n", "workload", "metric", "A median [q1 q3] (runs)", "B median [q1 q3] (runs)", "delta", "B won", "verdict")
	for _, w := range workloadNames() {
		if len(a[w]) == 0 || len(bb[w]) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(a[w], m.Name), values(bb[w], m.Name)
			won, v := judge(va, vb, m.Better == "lower", m.Bound)
			if v == worse {
				code = 1
			}
			side := func(xs []float64) string {
				q1, q3 := quartiles(xs)
				return fmt.Sprintf("%.4g [%.4g %.4g] (%d)", median(xs), q1, q3, len(xs))
			}
			delta := 100 * ratio(median(vb)-median(va), math.Abs(median(va)))
			fmt.Fprintf(stdout, "%-12s %-12s %-34s %-34s %+7.1f%% %5.0f%%  %s (bound %.0f%%)\n",
				w, m.Name, side(va), side(vb), delta, 100*won, v, 100*m.Bound)
		}
	}
	return code
}
