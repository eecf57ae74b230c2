package fingers

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"fingers/internal/datasets"
	fingerspe "fingers/internal/fingers"
	"fingers/internal/plan"
)

// JobSpec is the JSON-serializable description of one simulation job:
// which architecture to model, which graph and benchmark pattern to
// mine, and how the chip and engine are shaped. It is the single wire
// and flag format shared by the fingersd daemon (the POST /v1/jobs
// body), cmd/fingersim, and cmd/experiments — flags and request bodies
// populate a spec, and the spec produces the Simulate arguments — so
// every entry point validates and decodes identically.
//
// Zero fields mean "the model's default": 1 PE, the paper's PE
// configuration, the model's shared-cache capacity, one shard, and no
// deadline.
type JobSpec struct {
	// Arch selects the timing model: "fingers", "flexminer", or "sisa"
	// (case-insensitive; the display names FINGERS/FlexMiner/SISA also
	// parse). See ParseArch.
	Arch string `json:"arch"`
	// Graph names the workload graph: a bundled dataset mnemonic
	// (As/Mi/Yo/Pa/Lj/Or) for the daemon and CLIs, or an edge-list /
	// binary CSR path for the CLIs (ResolveGraph).
	Graph string `json:"graph"`
	// Pattern is the benchmark mnemonic (tc/4cl/5cl/tt/cyc/dia or any
	// named pattern; "3mc" expands to the 3-motif multi-pattern plan).
	Pattern string `json:"pattern"`
	// PEs is the processing-element count; 0 means 1.
	PEs int `json:"pes,omitempty"`
	// IUs overrides the FINGERS intersect-unit count per PE; 0 keeps
	// the paper's 24. Ignored by the FlexMiner architecture.
	IUs int `json:"ius,omitempty"`
	// IsoArea, when IUs is set, rescales the segment length so #IUs ×
	// s_l stays constant (the paper's iso-area rule). Nil means true.
	IsoArea *bool `json:"iso_area,omitempty"`
	// PseudoDFS enables the pseudo-DFS task-group order on FINGERS.
	// Nil means true (the paper's default).
	PseudoDFS *bool `json:"pseudo_dfs,omitempty"`
	// CacheKB is the shared-cache capacity in kB; 0 keeps the model's
	// default.
	CacheKB int64 `json:"cache_kb,omitempty"`
	// SimShards, when > 1, partitions root vertices across this many
	// independent engine instances run on separate OS threads and merged
	// deterministically (see WithShards). Embedding counts are identical
	// at every shard count; cycle totals model an N-chip fleet. Clamped
	// to the PE count, and by a serving daemon to its configured maximum.
	SimShards int `json:"sim_shards,omitempty"`
	// TimeoutMS is the per-job deadline in milliseconds of wall time;
	// an expired job stops within one cancellation quantum and reports
	// its partial results. 0 means no deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Stats requests the per-PE cycle records and (on FINGERS) the IU
	// utilization rates in the report.
	Stats bool `json:"stats,omitempty"`
	// RunTag groups this job's run records with others from the same
	// logical session for the trend tooling.
	RunTag string `json:"run_tag,omitempty"`
	// MaxAttempts budgets how many times a serving daemon may run this
	// job (first run included) when attempts fail transiently or hit
	// the deadline. 0 means the daemon's default; 1 disables retries
	// for this job. The daemon clamps it to its own server-wide cap.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// Priority hints the daemon's load shedder: "low", "normal" (or
	// empty), "high". Under queue pressure, low-priority jobs are shed
	// first and high-priority jobs last. Ignored outside the daemon.
	Priority string `json:"priority,omitempty"`
}

// ParseArch resolves an architecture name: "fingers"/"FINGERS",
// "flexminer"/"FlexMiner", and "sisa"/"SISA" (case-insensitive).
func ParseArch(name string) (Arch, error) {
	switch strings.ToLower(name) {
	case "fingers":
		return ArchFingers, nil
	case "flexminer":
		return ArchFlexMiner, nil
	case "sisa":
		return ArchSISA, nil
	}
	return 0, fmt.Errorf("fingers: unknown architecture %q (valid: fingers, flexminer, sisa)", name)
}

// ArchValue parses the spec's architecture field.
func (s JobSpec) ArchValue() (Arch, error) { return ParseArch(s.Arch) }

// isoArea reports the iso-area rescaling choice, defaulting to true.
func (s JobSpec) isoArea() bool { return s.IsoArea == nil || *s.IsoArea }

// pseudoDFS reports the pseudo-DFS choice, defaulting to true.
func (s JobSpec) pseudoDFS() bool { return s.PseudoDFS == nil || *s.PseudoDFS }

// CacheBytes converts CacheKB to bytes; 0 keeps the model default.
func (s JobSpec) CacheBytes() int64 { return s.CacheKB << 10 }

// Timeout converts TimeoutMS to a duration; 0 means no deadline.
func (s JobSpec) Timeout() time.Duration { return time.Duration(s.TimeoutMS) * time.Millisecond }

// AcceleratorConfig materializes the FINGERS PE configuration the spec
// describes: the paper's default reshaped by IUs, IsoArea, and
// PseudoDFS.
func (s JobSpec) AcceleratorConfig() AcceleratorConfig {
	cfg := fingerspe.DefaultConfig()
	if s.IUs > 0 {
		if s.isoArea() {
			cfg = cfg.WithIUs(s.IUs)
		} else {
			cfg = cfg.WithIUsUnlimited(s.IUs)
		}
	}
	cfg.PseudoDFS = s.pseudoDFS()
	return cfg
}

// Validate checks every field of the spec without touching the graph:
// the architecture parses, graph and pattern are named, the pattern
// compiles, and the numeric knobs are in range. ResolveGraph reports
// graph problems separately so a service can map "unknown dataset" to
// its own error surface.
func (s JobSpec) Validate() error {
	if _, err := s.ArchValue(); err != nil {
		return err
	}
	if s.Graph == "" {
		return fmt.Errorf("fingers: JobSpec: graph is empty")
	}
	if s.Pattern == "" {
		return fmt.Errorf("fingers: JobSpec: pattern is empty")
	}
	if _, err := plan.ForBenchmark(s.Pattern); err != nil {
		return fmt.Errorf("fingers: JobSpec: pattern: %w", err)
	}
	if s.PEs < 0 {
		return fmt.Errorf("fingers: JobSpec: pes must be >= 0, got %d", s.PEs)
	}
	if s.IUs < 0 {
		return fmt.Errorf("fingers: JobSpec: ius must be >= 0, got %d", s.IUs)
	}
	if s.CacheKB < 0 {
		return fmt.Errorf("fingers: JobSpec: cache_kb must be >= 0, got %d", s.CacheKB)
	}
	if s.SimShards < 0 {
		return fmt.Errorf("fingers: JobSpec: sim_shards must be >= 0, got %d", s.SimShards)
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("fingers: JobSpec: timeout_ms must be >= 0, got %d", s.TimeoutMS)
	}
	if s.MaxAttempts < 0 {
		return fmt.Errorf("fingers: JobSpec: max_attempts must be >= 0, got %d", s.MaxAttempts)
	}
	switch s.Priority {
	case "", "low", "normal", "high":
	default:
		return fmt.Errorf("fingers: JobSpec: priority must be low, normal, or high, got %q", s.Priority)
	}
	return nil
}

// Plans compiles the spec's benchmark pattern into its plan set.
func (s JobSpec) Plans() ([]*Plan, error) {
	plans, err := plan.ForBenchmark(s.Pattern)
	if err != nil {
		return nil, fmt.Errorf("fingers: JobSpec: pattern: %w", err)
	}
	return plans, nil
}

// ResolveGraph loads the spec's graph with datasets.Resolve: a bundled
// dataset mnemonic, else a graph file, and a *datasets.NotFoundError
// for a bare unknown name. A service that restricts jobs to registered
// datasets resolves the name against its own registry instead.
func (s JobSpec) ResolveGraph() (*Graph, error) {
	return datasets.Resolve(s.Graph)
}

// ToOptions bridges the spec to the Simulate option list: PEs, shared
// cache, PE configuration, shards, deadline, and stats. The
// caller composes extras (WithContext, WithTracer, WithProgress) on
// top. The spec is validated first, so an invalid spec never produces
// a half-applied option set.
func (s JobSpec) ToOptions() ([]SimOption, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	opts := []SimOption{WithAcceleratorConfig(s.AcceleratorConfig())}
	if s.PEs > 0 {
		opts = append(opts, WithPEs(s.PEs))
	}
	if s.CacheKB > 0 {
		opts = append(opts, WithSharedCache(s.CacheBytes()))
	}
	if s.SimShards > 1 {
		opts = append(opts, WithShards(s.SimShards))
	}
	if s.TimeoutMS > 0 {
		opts = append(opts, WithTimeout(s.Timeout()))
	}
	if s.Stats {
		opts = append(opts, WithStats())
	}
	return opts, nil
}

// removedJobFields are the fields of the removed parallel simulation
// engine. Older clients may still send them, so DecodeJobSpec names
// them in its error instead of reporting a bare unknown field.
var removedJobFields = []string{"sim_workers", "sim_window"}

// DecodeJobSpec parses one JSON job spec, rejecting unknown fields so a
// misspelled knob fails loudly instead of silently running defaults.
func DecodeJobSpec(data []byte) (JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s JobSpec
	if err := dec.Decode(&s); err != nil {
		for _, f := range removedJobFields {
			if err.Error() == fmt.Sprintf("json: unknown field %q", f) {
				return s, fmt.Errorf("fingers: JobSpec: %s is no longer accepted: the parallel simulation engine was removed; use sim_shards to spread a run over host cores", f)
			}
		}
		return s, fmt.Errorf("fingers: JobSpec: %w", err)
	}
	return s, nil
}
