// fingerstat renders bench-trend and run-record observability reports
// from the JSONL run logs and BENCH_sim.json reports a checkout (or CI
// artifact directory) accumulates. Records group into one series per
// run configuration (arch, graph, pattern, experiment, PEs, IUs, shared
// cache, shards). Three outputs from one model: an ANSI terminal table
// with sparkline trends, a self-contained HTML page with inline SVG
// charts, and a machine-readable fingers.trend/v2 JSON summary.
//
// The report shows how series moved; it does not judge a move. Speed
// is judged by paired same-host runs (scripts/perf-gate.sh) and
// modelled cycles by the timing goldens.
//
// Exit codes: 0 ok; 1 usage or I/O error; 2 with -strict when any
// input was skipped.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"fingers/internal/trend"
)

type config struct {
	dir      string
	files    []string
	htmlPath string
	jsonPath string
	window   int
	arch     string
	graph    string
	pattern  string
	tag      string
	last     int
	noColor  bool
	strict   bool

	// now stamps generated_at; tests pin it for reproducible output.
	now func() time.Time
	// mtime overrides the legacy-report timestamp fallback in tests.
	mtime func(string) (time.Time, error)
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("fingerstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{now: time.Now}
	fs.StringVar(&cfg.dir, "dir", "", "directory tree to scan for *.jsonl run logs and *.json simbench reports")
	fs.StringVar(&cfg.htmlPath, "html", "", "write a self-contained HTML report to this path")
	fs.StringVar(&cfg.jsonPath, "json", "", "write a fingers.trend/v2 JSON summary to this path ('-' for stdout)")
	fs.IntVar(&cfg.window, "window", trend.DefaultWindow, "rolling-statistics window in points")
	fs.StringVar(&cfg.arch, "arch", "", "keep only this architecture (fingers, flexminer, ...)")
	fs.StringVar(&cfg.graph, "graph", "", "keep only this graph")
	fs.StringVar(&cfg.pattern, "pattern", "", "keep only this pattern")
	fs.StringVar(&cfg.tag, "tag", "", "keep only records and reports with this run_tag")
	fs.IntVar(&cfg.last, "last", 0, "keep only the newest N points per series (0 = all)")
	fs.BoolVar(&cfg.noColor, "no-color", false, "disable ANSI colors in the terminal report")
	fs.BoolVar(&cfg.strict, "strict", false, "exit 2 when any input file or line was skipped")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: fingerstat [flags] [file.jsonl|file.json ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.files = fs.Args()
	if cfg.dir == "" && len(cfg.files) == 0 {
		fs.Usage()
		return cfg, fmt.Errorf("nothing to do: pass -dir and/or input files")
	}
	if cfg.window < 1 {
		return cfg, fmt.Errorf("-window must be >= 1 (got %d)", cfg.window)
	}
	return cfg, nil
}

// run ingests, builds the model, and renders every requested output.
func run(cfg config, stdout, stderr io.Writer) int {
	var c *trend.Corpus
	scanOpt := trend.ScanOptions{MTime: cfg.mtime}
	if cfg.dir != "" {
		var err error
		c, err = trend.Scan(cfg.dir, scanOpt)
		if err != nil {
			fmt.Fprintf(stderr, "fingerstat: scan %s: %v\n", cfg.dir, err)
			return 1
		}
	} else {
		c = trend.NewCorpus(scanOpt)
	}
	if len(cfg.files) > 0 {
		if err := c.AddFiles(cfg.files); err != nil {
			fmt.Fprintf(stderr, "fingerstat: %v\n", err)
			return 1
		}
	}

	m := trend.Build(c, trend.Options{
		Window:  cfg.window,
		Arch:    cfg.arch,
		Graph:   cfg.graph,
		Pattern: cfg.pattern,
		Tag:     cfg.tag,
		Last:    cfg.last,
	})

	generatedAt := cfg.now().UTC().Format(time.RFC3339)
	// With -json - stdout carries only the summary, so it pipes into a
	// JSON tool; the human-readable report moves to stderr.
	report := stdout
	if cfg.jsonPath == "-" {
		report = stderr
	}
	renderTerm(report, m, colorizer{on: !cfg.noColor})

	if cfg.htmlPath != "" {
		f, err := os.Create(cfg.htmlPath)
		if err != nil {
			fmt.Fprintf(stderr, "fingerstat: %v\n", err)
			return 1
		}
		werr := renderHTML(f, m, generatedAt)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "fingerstat: write %s: %v\n", cfg.htmlPath, werr)
			return 1
		}
		fmt.Fprintf(report, "wrote %s\n", cfg.htmlPath)
	}
	if cfg.jsonPath != "" {
		sum := m.Summary(generatedAt)
		if cfg.jsonPath == "-" {
			if err := trend.WriteSummary(stdout, sum); err != nil {
				fmt.Fprintf(stderr, "fingerstat: %v\n", err)
				return 1
			}
		} else {
			f, err := os.Create(cfg.jsonPath)
			if err != nil {
				fmt.Fprintf(stderr, "fingerstat: %v\n", err)
				return 1
			}
			werr := trend.WriteSummary(f, sum)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintf(stderr, "fingerstat: write %s: %v\n", cfg.jsonPath, werr)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", cfg.jsonPath)
		}
	}

	if cfg.strict && len(c.Skips) > 0 {
		fmt.Fprintf(stderr, "fingerstat: -strict: %d input(s) skipped\n", len(c.Skips))
		return 2
	}
	return 0
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(1)
	}
	os.Exit(run(cfg, os.Stdout, os.Stderr))
}
