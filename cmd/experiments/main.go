// Command experiments regenerates the tables and figures of the FINGERS
// paper's evaluation on the synthetic dataset analogues.
//
// Usage:
//
//	experiments [flags] <experiment>...
//
// where <experiment> is one of: table1, table2, fig9, fig10, fig11,
// fig12, fig13, table3, all — plus the extensions: ablate (design-choice
// sweeps) and parallelism (the §3 fine-grained parallelism census).
//
// Flags:
//
//	-quick          restrict to small graphs and three patterns (smoke run)
//	-fingers-pes N  FINGERS chip size (default 20, the iso-area point)
//	-flex-pes N     FlexMiner chip size (default 40)
//	-cache-kb N     shared-cache capacity override in kB
//	-workers N      worker pool width for independent cells (0 = all cores)
//	-cpuprofile F   write a CPU profile to F
//	-memprofile F   write a heap profile to F on exit
//
// A first SIGINT or SIGTERM cancels the sweep: the in-flight chip runs
// stop within one cancellation quantum, their partial telemetry records
// are still flushed to -json (flagged partial), partial tables are not
// printed, and the process exits 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"syscall"
	"time"

	"fingers"
	"fingers/internal/exp"
	"fingers/internal/telemetry"
)

// main delegates to realMain so deferred cleanup (profiles, the JSONL
// run log) runs before the process exits — including on signal-driven
// cancellation, which os.Exit inside the body would skip.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	quick := flag.Bool("quick", false, "small graphs and pattern subset")
	fiPEs := flag.Int("fingers-pes", 0, "FINGERS chip PE count (0 = paper default 20)")
	fmPEs := flag.Int("flex-pes", 0, "FlexMiner chip PE count (0 = paper default 40)")
	cacheKB := flag.Int64("cache-kb", 0, "shared-cache capacity override (kB)")
	workers := flag.Int("workers", 0, "experiment-cell worker pool width (0 = GOMAXPROCS)")
	csvDir := flag.String("csv", "", "also write per-experiment CSV files into this directory")
	jsonOut := flag.String("json", "", "append one JSONL run record per simulated chip run to this file")
	runTag := flag.String("run-tag", "", "tag stamped into -json records so trend tooling can group this sweep")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile here")
	memProfile := flag.String("memprofile", "", "write a heap profile here on exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The cache size rides through a JobSpec so the CLI shares the
	// daemon's unit conversion instead of duplicating it.
	spec := fingers.JobSpec{CacheKB: *cacheKB}
	opts := exp.Options{
		Quick:            *quick,
		FingersPEs:       *fiPEs,
		FlexPEs:          *fmPEs,
		SharedCacheBytes: spec.CacheBytes(),
		Workers:          *workers,
		Ctx:              ctx,
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}
	if *jsonOut != "" {
		log, err := telemetry.OpenRunLog(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		defer log.Close()
		meta := telemetry.HostMeta()
		meta.RunTag = *runTag
		meta.Source = "experiments"
		log.SetMeta(meta)
		opts.Log = log
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: experiments [flags] <table1|table2|fig9|fig10|fig11|fig12|fig13|table3|ablate|parallelism|all>")
		return 2
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
	}
	for _, name := range args {
		if err := run(ctx, name, opts, *csvDir); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			if ctx.Err() != nil {
				return 130
			}
			return 1
		}
	}
	return 0
}

// csvWriter is any experiment result that can export itself as CSV.
type csvWriter interface {
	WriteCSV(w io.Writer) error
}

// saveCSV writes one result to <dir>/<name>.csv.
func saveCSV(dir, name string, r csvWriter) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return r.WriteCSV(f)
}

func run(ctx context.Context, name string, opts exp.Options, csvDir string) error {
	started := time.Now()
	if ctx.Err() != nil {
		return fmt.Errorf("interrupted before %s", name)
	}
	var results []any
	switch name {
	case "table1":
		results = append(results, exp.Table1())
	case "table2":
		results = append(results, exp.Table2())
	case "fig9":
		results = append(results, exp.Fig9(opts))
	case "fig10":
		results = append(results, exp.Fig10(opts))
	case "fig11":
		results = append(results, exp.Fig11(opts))
	case "fig12":
		results = append(results, exp.Fig12(opts))
	case "fig13":
		results = append(results, exp.Fig13(opts))
	case "table3":
		results = append(results, exp.Table3(opts))
	case "ablate":
		for _, r := range exp.Ablations(opts) {
			results = append(results, r)
		}
	case "parallelism":
		results = append(results, exp.Parallelism(opts))
	case "all":
		for _, n := range []string{"table1", "table2", "fig9", "fig10", "fig11", "fig12", "fig13", "table3"} {
			if err := run(ctx, n, opts, csvDir); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	// A cancelled sweep returns with unreached cells missing; discard the
	// partial table rather than print misleading holes.
	if ctx.Err() != nil {
		return fmt.Errorf("%s interrupted, partial result discarded", name)
	}
	for i, r := range results {
		fmt.Println(r)
		w, ok := r.(csvWriter)
		if !ok {
			continue
		}
		csvName := name
		if len(results) > 1 {
			csvName = fmt.Sprintf("%s_%d", name, i)
		}
		if err := saveCSV(csvDir, csvName, w); err != nil {
			return err
		}
	}
	fmt.Printf("[%s completed in %v]\n\n", name, time.Since(started).Round(time.Millisecond))
	return nil
}
