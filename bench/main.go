// Command bench is the repository's seeded end-to-end benchmark. It runs
// one workload per invocation and prints, as the last line of standard
// output, one JSON object with the keys correct, attempted, failed and
// metrics:
//
//	bash bench/run.sh --workload sim-fit --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload all --seconds 15
//	bash bench/run.sh --workload serve --trace 1      # per-layer metrics
//	bash bench/run.sh --workload all --update          # rewrite golden.json
//	bash bench/run.sh compare before/ after/
//
// The workloads, metrics and bounds are described in bench/README.md and
// listed in BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"fingers/internal/telemetry"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// work is the scratch directory for journals and trace output.
	work string
	// scale > 1 shrinks every input graph; only the smoke test sets it.
	scale int
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
	log       io.Writer
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line every run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run, on every workload; a
// layer a workload never enters reads 0.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range cpuLayers {
		out = append(out, metricDef{l + ".cpu_s", "s"})
	}
	out = append(out,
		metricDef{"cpu.total_s", "s"},
		metricDef{"graph.gen_s", "s"},
		metricDef{"graph.hybrid_s", "s"},
		metricDef{"plan.compile_ms", "ms"},
		metricDef{"service.registry_build_ms", "ms"},
		metricDef{"sim.fingers_s", "s"},
		metricDef{"sim.flexminer_s", "s"},
		metricDef{"sim.sisa_s", "s"},
		metricDef{"sim.cycles", "cycles"},
		metricDef{"sim.cycles_per_s", "cycles/s"},
	)
	for _, w := range cellWorkloads {
		for _, c := range w.cells {
			if c.arch == soft {
				out = append(out, metricDef{mineSpan(c), "ms"})
			}
		}
	}
	return append(out,
		metricDef{"service.submit_ms_p50", "ms"},
		metricDef{"service.submit_ms_p90", "ms"},
		metricDef{"service.queue_ms_p50", "ms"},
		metricDef{"service.queue_ms_p90", "ms"},
		metricDef{"service.run_ms_p50", "ms"},
		metricDef{"service.run_ms_p90", "ms"},
		metricDef{"service.stream_tail_ms_p50", "ms"},
		metricDef{"service.rejected", "count"},
		metricDef{"service.retried", "count"},
		metricDef{"journal.bytes_per_job", "B"},
		metricDef{"mem.miss_rate", "frac"},
		metricDef{"mem.dram_mb", "MB"},
		metricDef{"accel.tasks", "count"},
		metricDef{"accel.compute_frac", "frac"},
		metricDef{"accel.stall_frac", "frac"},
		metricDef{"accel.overhead_frac", "frac"},
		metricDef{"accel.idle_frac", "frac"},
		metricDef{"accel.host_ns_per_task", "ns"},
		metricDef{"graph.dense_rows", "count"},
		metricDef{"graph.bitmap_rows", "count"},
		metricDef{"graph.hybrid_mb", "MB"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.mallocs", "count"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"trace.overhead_frac", "frac"},
	)
}

// mineSpan names the per-layer span of a software-miner cell.
func mineSpan(c cell) string { return "mine." + c.graph + "." + c.pattern + "_ms" }

// phase is what one measured stretch of a run produced.
type phase struct {
	// passes holds the wall time of every whole pass, in seconds.
	passes []float64
	// lat holds the operation latencies in ms, by operation class: a
	// cell, or a serve job's graph/pattern/arch/PEs. ops counts them.
	lat map[string][]float64
	ops int
	// cal holds the calibration times taken before the passes.
	cal []float64
	// work is the number of passes' worth of work done, the divisor of
	// every per-pass metric.
	work float64
	// layer holds the workload's own per-layer values.
	layer map[string]float64
}

// runner drives one workload through set-up, measurement and checking.
type runner interface {
	// setup builds a fresh set of inputs, replacing the previous one,
	// and runs the warm-up; it returns the set-up spans it timed.
	setup(tr *tracer) (map[string]float64, error)
	// measure runs whole passes until d has elapsed, at least one.
	measure(d time.Duration, tr *tracer) (*phase, error)
	// verify compares the outputs with golden.json or, for another
	// seed, with independent implementations.
	verify() error
	// footprint returns the per-layer sizes of the inputs.
	footprint() map[string]float64
	// totals returns the operations attempted and failed.
	totals() (attempted, failed int)
	// release drops the current inputs before the next set-up.
	release()
}

func newRunner(cfg config) (runner, error) {
	if w, ok := findCellWorkload(cfg.workload); ok {
		return newCellRunner(cfg, w), nil
	}
	if cfg.workload == "serve" {
		return newServeRunner(cfg), nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (valid: %s, all)", cfg.workload, strings.Join(workloadNames(), ", "))
}

// run executes one workload and returns its result.
func run(cfg config) (result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return result{}, err
	}
	defer r.release()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		tr.setOn(true)
	}
	// Before each set-up and each pass the harness collects garbage and
	// times one calibration loop, both untimed: passes start from the
	// same heap state, and the calibrations track the host's speed.
	setupSpans := map[string][]float64{}
	var setups, cal []float64
	for i := 0; i < cfg.setupReps; i++ {
		r.release()
		runtime.GC()
		cal = append(cal, calibrate())
		t0 := time.Now()
		spans, err := r.setup(tr)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		for k, v := range spans {
			setupSpans[k] = append(setupSpans[k], v)
		}
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	m := map[string]metric{}
	if !cfg.trace {
		debug.FreeOSMemory()
		rss := sampleRSS()
		p, err := r.measure(d, nil)
		peak := rss.end()
		if err != nil {
			return result{}, err
		}
		if err := r.verify(); err != nil {
			return result{}, err
		}
		cal = append(append(cal, p.cal...), calibrate())
		f := calRef / median(cal)
		m["setup_s"] = metric{f * median(setups), "s"}
		m["pass_s"] = metric{f * median(p.passes), "s"}
		m["op_p50_ms"] = metric{f * classPercentile(p.lat, 50), "ms"}
		m["op_p90_ms"] = metric{f * classPercentile(p.lat, 90), "ms"}
		m["peak_rss_mb"] = metric{peak, "MB"}
		fmt.Fprintf(cfg.log, "bench: %s: host factor %.4f (%d calibrations); wall: setup %.4f s, pass %.4f s (%d passes), op p50 %.3f ms, p90 %.3f ms (%d classes, %d ops)\n",
			cfg.workload, f, len(cal), median(setups), median(p.passes), len(p.passes),
			classPercentile(p.lat, 50), classPercentile(p.lat, 90), len(p.lat), p.ops)
	} else {
		m, err = traced(cfg, r, tr, d/2)
		if err != nil {
			return result{}, err
		}
		for k, v := range setupSpans {
			m[k] = metric{median(v), m[k].Unit}
		}
	}
	res := result{Metrics: m}
	res.Attempted, res.Failed = r.totals()
	res.Correct = res.Failed == 0
	return res, nil
}

// traced measures half the run untraced and half with spans and the CPU
// profile on, and returns every per-layer metric.
func traced(cfg config, r runner, tr *tracer, half time.Duration) (map[string]metric, error) {
	tr.setOn(false)
	untraced, err := r.measure(half, nil)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(traceDir(cfg), 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(traceDir(cfg), cfg.workload)
	prof, err := os.Create(base + ".cpu.prof")
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	tr.setOn(true)
	p, err := r.measure(half, tr)
	tr.setOn(false)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	if err := prof.Close(); err != nil {
		return nil, err
	}
	m := map[string]metric{}
	for _, d := range perLayer() {
		m[d.name] = metric{0, d.unit}
	}
	set := func(name string, v float64) {
		if d, ok := m[name]; ok {
			m[name] = metric{v, d.Unit}
		}
	}
	for k, v := range p.layer {
		set(k, v)
	}
	// Before verify, which may build the default-seed inputs.
	for k, v := range r.footprint() {
		set(k, v)
	}
	if err := r.verify(); err != nil {
		return nil, err
	}
	passes := p.work
	cpu, total, err := profileLayers(base + ".cpu.prof")
	if err != nil {
		return nil, err
	}
	for _, l := range cpuLayers {
		set(l+".cpu_s", cpu[l]/passes)
	}
	set("cpu.total_s", total/passes)
	set("runtime.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/passes)
	set("runtime.mallocs", float64(ms1.Mallocs-ms0.Mallocs)/passes)
	set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC)/passes)
	set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6/passes)
	set("trace.overhead_frac", median(p.passes)/median(untraced.passes)-1)

	if err := tr.write(base + ".trace.json"); err != nil {
		return nil, err
	}
	if err := writeLayers(traceDir(cfg), cfg.workload, m); err != nil {
		return nil, err
	}
	return m, nil
}

func traceDir(cfg config) string { return filepath.Join(cfg.work, "trace") }

// record is a result saved with its provenance by -out, the input of
// the compare subcommand.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	GitRev     string  `json:"git_rev"`
	HostCores  int     `json:"host_cores"`
	GoMaxProcs int     `json:"gomaxprocs"`
	StartedAt  string  `json:"started_at"`
	Result     result  `json:"result"`
}

// saveRecord writes one run's record into dir.
func saveRecord(dir string, cfg config, started time.Time, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	rec := record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: trace,
		GitRev: telemetry.GitRevision(), HostCores: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		StartedAt: started.UTC().Format(time.RFC3339Nano), Result: res,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", cfg.workload, cfg.seed, trace, started.UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// printResult prints every metric by name and unit, then the result line.
func printResult(w io.Writer, workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-12s %-28s %16.6g %s\n", workload, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	b, _ := json.Marshal(res) // a result always marshals
	fmt.Fprintln(w, string(b))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", defaultSeed, "input seed; the default reproduces the dataset analogues pinned by golden.json")
	seconds := fs.Float64("seconds", 15, "measured time per run")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics instead of end-to-end ones")
	work := fs.String("work", ".bench_build", "scratch directory for journals and trace output")
	out := fs.String("out", "", "also save each result with its provenance in this directory")
	update := fs.Bool("update", false, "regenerate the golden file from the default seed instead of measuring")
	goldenPath := fs.String("golden", "bench/golden.json", "golden file written by -update")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		if fs.Arg(0) == "compare" {
			return compareMain(fs.Args()[1:], stdout, stderr)
		}
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	}
	if *update {
		if err := updateGolden(*goldenPath, names, stderr); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if *workload == "all" {
		return runAll(args, stdout, stderr)
	}
	runtime.GOMAXPROCS(2)
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		work: *work, scale: 1, setupReps: 3, log: stderr,
	}
	started := time.Now()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	printResult(stdout, cfg.workload, res)
	if *out != "" {
		if err := saveRecord(*out, cfg, started, res); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a fresh child process of this binary,
// one after another, each printing its own metrics and result line.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	code := 0
	for _, w := range workloadNames() {
		cmd := exec.Command(exe, append(withoutWorkload(args), "-workload", w)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

// withoutWorkload drops any -workload flag from args.
func withoutWorkload(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		switch {
		case a == "workload":
			i++
		case strings.HasPrefix(a, "workload="):
		default:
			out = append(out, args[i])
		}
	}
	return out
}

// mb converts bytes to MB.
func mb(bytes int64) float64 { return float64(bytes) / (1 << 20) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
