package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory and writes them out
// as Chrome trace_event JSON when the run ends. A nil tracer, or one not
// yet switched on, records nothing.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	on     bool
	events []traceEvent
}

// traceEvent is one complete ("X") event of the Chrome trace format.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setOn switches recording on or off.
func (t *tracer) setOn(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// span records [start, end) under name on track tid. The category is
// the layer prefix of the name; args carry the request ID and parent
// span that tie one request's spans together.
func (t *tracer) span(name string, tid int, start, end time.Time, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	cat, _, _ := strings.Cut(name, ".")
	t.events = append(t.events, traceEvent{
		Name: name, Cat: cat, Ph: "X", PID: 1, TID: tid,
		TS:   float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		Dur:  float64(end.Sub(start).Nanoseconds()) / 1e3,
		Args: args,
	})
}

// write saves the recorded spans to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": t.events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cpuLayers are the layers CPU self time is attributed to, in report
// order. Every profile sample lands in exactly one of them, so their sum
// is the profile total.
var cpuLayers = []string{
	"fingers", "accel", "fingerspe", "flexminer", "mem", "noc", "mine",
	"setops", "graph", "plan", "service", "journal", "telemetry",
	"runtime", "stdlib", "other",
}

// internalLayer maps a package under fingers/internal to its layer.
var internalLayer = map[string]string{
	"accel":     "accel",
	"fingers":   "fingerspe",
	"flexminer": "flexminer",
	"mem":       "mem",
	"noc":       "noc",
	"mine":      "mine",
	"setops":    "setops",
	"graph":     "graph",
	"plan":      "plan",
	"pattern":   "plan",
	"planopt":   "plan",
	"service":   "service",
	"journal":   "journal",
	"telemetry": "telemetry",
}

// funcPackage returns the import path of a symbolized function name such
// as "fingers/internal/mem.(*Cache).Access".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf attributes a leaf function to its layer by package.
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case pkg == "fingers":
		return "fingers"
	case strings.HasPrefix(pkg, "fingers/internal/"):
		sub, _, _ := strings.Cut(strings.TrimPrefix(pkg, "fingers/internal/"), "/")
		if l, ok := internalLayer[sub]; ok {
			return l
		}
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	// The standard library's import paths have no dot in their first
	// element; compiler-generated symbols carry a colon there.
	first, _, _ := strings.Cut(pkg, "/")
	if pkg == "main" || strings.ContainsAny(first, ".:") {
		return "other"
	}
	return "stdlib"
}

// leafSeconds groups the samples of a `go tool pprof -traces` listing by
// the layer of each sample's leaf frame and returns CPU seconds per
// layer plus the profile total.
func leafSeconds(r io.Reader) (map[string]float64, float64, error) {
	out := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	leafNext := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			leafNext = true
			continue
		}
		if !leafNext {
			continue
		}
		leafNext = false
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, 0, fmt.Errorf("bench: pprof trace line %q: no leaf frame", line)
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, 0, fmt.Errorf("bench: pprof trace line %q: %w", line, err)
		}
		out[layerOf(f[1])] += d.Seconds()
		total += d.Seconds()
	}
	return out, total, sc.Err()
}

// profileLayers runs `go tool pprof -traces` on a saved CPU profile and
// groups its samples by leaf layer.
func profileLayers(prof string) (map[string]float64, float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", prof)
	cmd.Stderr = io.Discard
	b, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("bench: go tool pprof: %w", err)
	}
	return leafSeconds(bytes.NewReader(b))
}

// writeLayers merges one workload's per-layer metrics into dir/layers.json.
func writeLayers(dir, workload string, metrics map[string]metric) error {
	path := filepath.Join(dir, "layers.json")
	all := map[string]map[string]metric{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("bench: %s: %w", path, err)
		}
	}
	all[workload] = metrics
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
