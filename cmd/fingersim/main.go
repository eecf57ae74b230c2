// Command fingersim simulates one graph-mining workload on the FINGERS
// accelerator, the FlexMiner baseline, or both, and reports cycles,
// counts, memory statistics, IU utilization, and the per-PE cycle
// breakdown (compute / memory stall / overhead / idle).
//
// Usage:
//
//	fingersim -graph Lj -pattern tt -arch both -pes 20
//	fingersim -graph path/to/edges.txt -pattern 4cl -arch fingers -ius 48
//	fingersim -graph Mi -pattern tt -arch both -trace /tmp/t.json -json /tmp/r.jsonl
//
// The flags populate a fingers.JobSpec — the same serializable job
// description the fingersd daemon accepts over HTTP — and the spec
// drives the Simulate façade, so a CLI invocation and a daemon job with
// equal fields configure the chip identically.
//
// -trace writes a Chrome trace_event file (open at ui.perfetto.dev, one
// track per PE); -json appends one machine-readable run record per
// simulated architecture; -progress N prints a live status line every N
// scheduler steps for long runs.
//
// SIGINT or SIGTERM cancels the simulation gracefully: the run stops
// within one cancellation quantum, the partial results (cycles reached,
// counts so far, dispatched roots) are printed and flushed to -json and
// -trace with the record's partial flag set, and the process exits 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"fingers"
	"fingers/internal/datasets"
	"fingers/internal/graph"
	"fingers/internal/simerr"
	"fingers/internal/telemetry"
)

// main delegates to realMain so deferred cleanup (profiles, the JSONL
// run log, the Chrome trace) runs before the process exits — including
// on signal-driven cancellation, which os.Exit inside the body would
// skip.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	graphArg := flag.String("graph", "Mi", "dataset mnemonic (As/Mi/Yo/Pa/Lj/Or) or edge-list path")
	patternArg := flag.String("pattern", "tc", "benchmark pattern (tc/4cl/5cl/tt/cyc/dia/3mc or any named pattern)")
	arch := flag.String("arch", "both", "fingers, flexminer, sisa, both, or all")
	pes := flag.Int("pes", 1, "number of PEs")
	ius := flag.Int("ius", 24, "IUs per FINGERS PE")
	isoArea := flag.Bool("iso-area", true, "shrink segment length as IUs grow (#IUs × s_l const)")
	cacheKB := flag.Int64("cache-kb", datasets.ScaledSharedCacheBytes>>10, "shared cache capacity (kB)")
	pseudoDFS := flag.Bool("pseudo-dfs", true, "enable pseudo-DFS task grouping")
	traceOut := flag.String("trace", "", "write Chrome trace_event JSON here (view at ui.perfetto.dev)")
	jsonOut := flag.String("json", "", "append one JSONL run record per simulated architecture here")
	runTag := flag.String("run-tag", "", "tag stamped into -json records so trend tooling can group this session")
	progressEvery := flag.Int64("progress", 0, "print a progress line to stderr every N scheduler steps (0 = off)")
	simShards := flag.Int("sim-shards", 0, "partition roots across this many independent engine instances on separate OS threads (0/1 = unsharded; clamped to -pes)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile here")
	memProfile := flag.String("memprofile", "", "write a heap profile here on exit")
	flag.Parse()

	// One spec per architecture: -arch both expands into the two specs a
	// daemon client would submit as two jobs.
	var archNames []string
	switch *arch {
	case "fingers", "flexminer", "sisa":
		archNames = []string{*arch}
	case "both":
		archNames = []string{"fingers", "flexminer"}
	case "all":
		archNames = []string{"fingers", "flexminer", "sisa"}
	default:
		return fail(fmt.Errorf("unknown -arch %q (valid values: fingers, flexminer, sisa, both, all)", *arch))
	}
	base := fingers.JobSpec{
		Graph:     *graphArg,
		Pattern:   *patternArg,
		PEs:       *pes,
		IUs:       *ius,
		IsoArea:   isoArea,
		PseudoDFS: pseudoDFS,
		CacheKB:   *cacheKB,
		RunTag:    *runTag,
	}
	if *simShards > 1 {
		base.SimShards = *simShards
	}

	// SIGINT/SIGTERM cancels the in-flight simulation; the partial
	// results are still printed and flushed below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
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
				fmt.Fprintln(os.Stderr, "fingersim:", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fingersim:", err)
			}
		}()
	}

	base.Arch = archNames[0]
	if err := base.Validate(); err != nil {
		return fail(err)
	}
	g, err := base.ResolveGraph()
	if err != nil {
		return fail(err)
	}
	plans, err := base.Plans()
	if err != nil {
		return fail(err)
	}
	st := graph.ComputeStats(g)
	fmt.Printf("graph: %d vertices, %d edges, avg degree %.1f, max degree %d\n",
		st.Vertices, st.Edges, st.AvgDegree, st.MaxDegree)
	fmt.Printf("pattern: %s (%d plan(s))\n", *patternArg, len(plans))

	var chrome *telemetry.Chrome
	if *traceOut != "" {
		chrome = telemetry.NewChrome()
	}
	var runLog *telemetry.RunLog
	if *jsonOut != "" {
		runLog, err = telemetry.OpenRunLog(*jsonOut)
		if err != nil {
			return fail(err)
		}
		defer runLog.Close()
		meta := telemetry.HostMeta()
		meta.RunTag = *runTag
		meta.Source = "fingersim"
		runLog.SetMeta(meta)
	}

	code := 0
	for _, name := range archNames {
		if code != 0 {
			break
		}
		spec := base
		spec.Arch = name
		code = runArch(ctx, spec, g, plans, chrome, runLog, *progressEvery, code)
	}

	if chrome != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return failCode(code, err)
		}
		if _, err := chrome.WriteTo(f); err != nil {
			f.Close()
			return failCode(code, err)
		}
		if err := f.Close(); err != nil {
			return failCode(code, err)
		}
		fmt.Printf("trace: %d events -> %s (open at ui.perfetto.dev)\n", len(chrome.Events()), *traceOut)
	}
	return code
}

// runArch simulates one architecture from its spec through the Simulate
// façade, prints the report, and appends the run record.
func runArch(ctx context.Context, spec fingers.JobSpec, g *fingers.Graph, plans []*fingers.Plan,
	chrome *telemetry.Chrome, runLog *telemetry.RunLog, progressEvery int64, code int) int {
	arch, err := spec.ArchValue()
	if err != nil {
		return failCode(code, err)
	}
	opts, err := spec.ToOptions()
	if err != nil {
		return failCode(code, err)
	}
	opts = append(opts, fingers.WithContext(ctx), fingers.WithStats())
	if chrome != nil {
		chrome.StartProcess(arch.String())
		opts = append(opts, fingers.WithTracer(chrome))
	}
	if progressEvery > 0 {
		label := arch.String()
		opts = append(opts, fingers.WithProgress(progressEvery, func(p fingers.SimProgress) {
			fmt.Fprintf(os.Stderr, "%s: steps=%d t=%dcy active-pes=%d\n", label, p.Steps, p.Now, p.Active)
		}))
	}

	start := time.Now()
	rep, runErr := fingers.Simulate(arch, g, plans, opts...)
	wall := time.Since(start)
	code = reportRunErr(code, runErr)

	cfg := spec.AcceleratorConfig()
	switch arch {
	case fingers.ArchFingers:
		fmt.Printf("FINGERS   %2d PEs × %2d IUs (s_l=%d): %s%s\n",
			specPEs(spec), cfg.NumIUs, cfg.LongSegLen, rep.Result, partialMark(runErr))
		fmt.Printf("          IU active %.1f%%, balance %.1f%%\n",
			100*rep.IU.ActiveRate(), 100*rep.IU.BalanceRate())
	case fingers.ArchFlexMiner:
		fmt.Printf("FlexMiner %2d PEs: %s%s\n", specPEs(spec), rep.Result, partialMark(runErr))
	case fingers.ArchSISA:
		fmt.Printf("SISA      %2d PEs: %s%s\n", specPEs(spec), rep.Result, partialMark(runErr))
	}
	fmt.Printf("          breakdown: %s\n", rep.Result.Breakdown)
	fmt.Printf("          roots dispatched: %d/%d\n", rep.RootsDone, rep.RootsTotal)

	if runLog != nil {
		rec := fingers.NewRunRecord(arch, "fingersim", fingers.NewGraphInfo(spec.Graph, g), spec.Pattern,
			specPEs(spec), cfg.NumIUs, spec.CacheBytes(), rep)
		rec.StartedAt = start.UTC().Format(time.RFC3339Nano)
		rec.WallNS = wall.Nanoseconds()
		if err := runLog.Write(rec); err != nil {
			code = reportRunErr(code, err)
		}
	}
	return code
}

// specPEs is the effective PE count (a zero spec field means 1).
func specPEs(s fingers.JobSpec) int {
	if s.PEs == 0 {
		return 1
	}
	return s.PEs
}

// reportRunErr folds one run error into the exit code: 130 for a
// signal-driven cancellation (the shell convention for SIGINT), 1 for
// anything else, keeping the first nonzero code.
func reportRunErr(code int, err error) int {
	if err == nil {
		return code
	}
	fmt.Fprintln(os.Stderr, "fingersim:", err)
	next := 1
	if se, ok := simerr.As(err); ok && se.IsCancellation() {
		next = 130
	}
	if code != 0 {
		return code
	}
	return next
}

// partialMark annotates a result line whose run was cut short.
func partialMark(err error) string {
	if err != nil {
		return "  [partial]"
	}
	return ""
}

// failCode reports err and returns the first nonzero exit code.
func failCode(code int, err error) int {
	fmt.Fprintln(os.Stderr, "fingersim:", err)
	if code != 0 {
		return code
	}
	return 1
}

// fail reports err and returns exit code 1 (flag/input errors, before
// any simulation state exists).
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "fingersim:", err)
	return 1
}
