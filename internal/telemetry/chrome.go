// Chrome trace_event exporter: buffers simulator events and writes the
// JSON format consumed by Perfetto (ui.perfetto.dev) and chrome://tracing.
// One simulated cycle maps to one microsecond of trace time, so a 1 GHz
// chip renders at true scale. Each architecture run is a trace "process"
// and each PE a "thread" (its own track); DRAM bursts get a dedicated
// process so off-chip occupancy lines up under the PE tracks.

package telemetry

import (
	"encoding/json"
	"fmt"
	"io"

	"fingers/internal/mem"
)

// dramPID is the trace process hosting the DRAM-burst track.
const dramPID = 9999

// ChromeEvent is one trace_event entry. Args is pre-encoded JSON so the
// file round-trips exactly (encode → decode → deep-equal) regardless of
// the argument value types.
type ChromeEvent struct {
	Name  string          `json:"name"`
	Phase string          `json:"ph"`
	Ts    int64           `json:"ts"`
	Dur   int64           `json:"dur,omitempty"`
	Pid   int             `json:"pid"`
	Tid   int             `json:"tid"`
	Scope string          `json:"s,omitempty"`
	Args  json.RawMessage `json:"args,omitempty"`
}

// TraceFile is the top-level Chrome trace JSON object.
type TraceFile struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Chrome is a Tracer that accumulates Chrome trace events in memory.
// Traces grow with event count, so attach it to bounded runs (small
// graphs or -quick experiments), not multi-hour sweeps.
type Chrome struct {
	events     []ChromeEvent
	pid        int
	openGroups map[int]openGroup
	named      map[[2]int]bool
	dramNamed  bool
}

type openGroup struct {
	start  mem.Cycles
	engine int
	size   int
}

// NewChrome returns an empty trace under a process named "sim". Call
// StartProcess to open a named process per simulated architecture.
func NewChrome() *Chrome {
	return &Chrome{openGroups: map[int]openGroup{}, named: map[[2]int]bool{}}
}

// args encodes event arguments, sorted-key deterministic.
func args(m map[string]interface{}) json.RawMessage {
	raw, err := json.Marshal(m)
	if err != nil {
		return nil
	}
	return raw
}

// StartProcess opens a new trace process (e.g. one per simulated
// architecture) and routes subsequent PE events onto its tracks.
func (c *Chrome) StartProcess(name string) {
	c.pid++
	c.events = append(c.events, ChromeEvent{
		Name:  "process_name",
		Phase: "M",
		Pid:   c.pid,
		Args:  args(map[string]interface{}{"name": name}),
	})
}

// ensureProcess lazily opens a default process for callers that never
// call StartProcess.
func (c *Chrome) ensureProcess() {
	if c.pid == 0 {
		c.StartProcess("sim")
	}
}

// ensureThread emits the one-time thread_name metadata for a PE track.
func (c *Chrome) ensureThread(tid int) {
	key := [2]int{c.pid, tid}
	if c.named[key] {
		return
	}
	c.named[key] = true
	c.events = append(c.events, ChromeEvent{
		Name:  "thread_name",
		Phase: "M",
		Pid:   c.pid,
		Tid:   tid,
		Args:  args(map[string]interface{}{"name": fmt.Sprintf("PE %d", tid)}),
	})
}

// TaskGroupBegin implements Tracer.
func (c *Chrome) TaskGroupBegin(pe, engine int, at mem.Cycles, size int) {
	c.ensureProcess()
	c.ensureThread(pe)
	c.openGroups[pe] = openGroup{start: at, engine: engine, size: size}
}

// TaskGroupEnd implements Tracer: emits the complete ("X") slice for the
// group opened by the matching TaskGroupBegin.
func (c *Chrome) TaskGroupEnd(pe int, at mem.Cycles) {
	g, ok := c.openGroups[pe]
	if !ok {
		return
	}
	delete(c.openGroups, pe)
	dur := int64(at - g.start)
	if dur < 1 {
		dur = 1
	}
	c.events = append(c.events, ChromeEvent{
		Name:  "task-group",
		Phase: "X",
		Ts:    int64(g.start),
		Dur:   dur,
		Pid:   c.pid,
		Tid:   pe,
		Args:  args(map[string]interface{}{"engine": g.engine, "size": g.size}),
	})
}

// SetOpIssue implements Tracer: an instant event on the PE track.
func (c *Chrome) SetOpIssue(pe int, at mem.Cycles, kind string, longLen, shortLen, workloads int) {
	c.ensureProcess()
	c.ensureThread(pe)
	c.events = append(c.events, ChromeEvent{
		Name:  kind,
		Phase: "i",
		Ts:    int64(at),
		Pid:   c.pid,
		Tid:   pe,
		Scope: "t",
		Args:  args(map[string]interface{}{"long": longLen, "short": shortLen, "workloads": workloads}),
	})
}

// CacheAccess implements Tracer: an instant event on the PE track,
// named by outcome so hits and misses can be filtered apart in the UI.
func (c *Chrome) CacheAccess(pe int, at mem.Cycles, bytes, lines, misses int64, done mem.Cycles) {
	c.ensureProcess()
	c.ensureThread(pe)
	name := "shared-hit"
	if misses > 0 {
		name = "shared-miss"
	}
	c.events = append(c.events, ChromeEvent{
		Name:  name,
		Phase: "i",
		Ts:    int64(at),
		Pid:   c.pid,
		Tid:   pe,
		Scope: "t",
		Args:  args(map[string]interface{}{"bytes": bytes, "lines": lines, "misses": misses, "latency": int64(done - at)}),
	})
}

// DRAMBurst implements Tracer: a complete slice on the DRAM track.
func (c *Chrome) DRAMBurst(start, done mem.Cycles, addr, bytes int64) {
	if !c.dramNamed {
		c.dramNamed = true
		c.events = append(c.events, ChromeEvent{
			Name:  "process_name",
			Phase: "M",
			Pid:   dramPID,
			Args:  args(map[string]interface{}{"name": "memory"}),
		}, ChromeEvent{
			Name:  "thread_name",
			Phase: "M",
			Pid:   dramPID,
			Args:  args(map[string]interface{}{"name": "DRAM"}),
		})
	}
	dur := int64(done - start)
	if dur < 1 {
		dur = 1
	}
	c.events = append(c.events, ChromeEvent{
		Name:  "burst",
		Phase: "X",
		Ts:    int64(start),
		Dur:   dur,
		Pid:   dramPID,
		Args:  args(map[string]interface{}{"addr": addr, "bytes": bytes}),
	})
}

// Events returns the buffered events (shared slice; do not mutate).
func (c *Chrome) Events() []ChromeEvent { return c.events }

// WriteTo encodes the trace as Chrome trace_event JSON.
func (c *Chrome) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	enc := json.NewEncoder(cw)
	err := enc.Encode(TraceFile{TraceEvents: c.events, DisplayTimeUnit: "ms"})
	return cw.n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
