package fingers

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"fingers/internal/datasets"
)

func TestParseArch(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Arch
	}{
		{"fingers", ArchFingers},
		{"FINGERS", ArchFingers},
		{"Fingers", ArchFingers},
		{"flexminer", ArchFlexMiner},
		{"FlexMiner", ArchFlexMiner},
		{"sisa", ArchSISA},
		{"SISA", ArchSISA},
	} {
		got, err := ParseArch(tc.in)
		if err != nil {
			t.Fatalf("ParseArch(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("ParseArch(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if _, err := ParseArch("gpu"); err == nil {
		t.Error("ParseArch accepted an unknown architecture")
	}
}

func TestJobSpecValidate(t *testing.T) {
	ok := JobSpec{Arch: "fingers", Graph: "Mi", Pattern: "tc"}
	if err := ok.Validate(); err != nil {
		t.Fatalf("minimal valid spec rejected: %v", err)
	}
	for name, bad := range map[string]JobSpec{
		"empty arch":       {Graph: "Mi", Pattern: "tc"},
		"bad arch":         {Arch: "gpu", Graph: "Mi", Pattern: "tc"},
		"empty graph":      {Arch: "fingers", Pattern: "tc"},
		"empty pattern":    {Arch: "fingers", Graph: "Mi"},
		"bad pattern":      {Arch: "fingers", Graph: "Mi", Pattern: "zzz"},
		"negative pes":     {Arch: "fingers", Graph: "Mi", Pattern: "tc", PEs: -1},
		"negative ius":     {Arch: "fingers", Graph: "Mi", Pattern: "tc", IUs: -2},
		"negative cache":   {Arch: "fingers", Graph: "Mi", Pattern: "tc", CacheKB: -1},
		"negative timeout": {Arch: "fingers", Graph: "Mi", Pattern: "tc", TimeoutMS: -1},
		"negative shards":  {Arch: "fingers", Graph: "Mi", Pattern: "tc", SimShards: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, bad)
		}
	}
}

func TestJobSpecDerivedValues(t *testing.T) {
	s := JobSpec{Arch: "fingers", Graph: "Mi", Pattern: "tc", CacheKB: 1024, TimeoutMS: 1500}
	if got := s.CacheBytes(); got != 1<<20 {
		t.Errorf("CacheBytes = %d, want %d", got, 1<<20)
	}
	if got := s.Timeout(); got != 1500*time.Millisecond {
		t.Errorf("Timeout = %v", got)
	}
	cfg := s.AcceleratorConfig()
	if cfg.NumIUs != 24 || !cfg.PseudoDFS {
		t.Errorf("default accelerator config: IUs=%d PseudoDFS=%v", cfg.NumIUs, cfg.PseudoDFS)
	}
	off := false
	s2 := JobSpec{Arch: "fingers", Graph: "Mi", Pattern: "tc", IUs: 48, PseudoDFS: &off}
	cfg2 := s2.AcceleratorConfig()
	if cfg2.NumIUs != 48 || cfg2.PseudoDFS {
		t.Errorf("tuned config: IUs=%d PseudoDFS=%v", cfg2.NumIUs, cfg2.PseudoDFS)
	}
	// Iso-area holds #IUs × s_l constant; unlimited does not shrink s_l.
	noIso := JobSpec{Arch: "fingers", Graph: "Mi", Pattern: "tc", IUs: 48, IsoArea: &off}
	if got, want := noIso.AcceleratorConfig().LongSegLen, cfg.LongSegLen; got != want {
		t.Errorf("IsoArea=false changed segment length: %d != %d", got, want)
	}
	if iso := s2.AcceleratorConfig().LongSegLen; iso >= cfg.LongSegLen {
		t.Errorf("IsoArea=true did not shrink segment length: %d", iso)
	}
}

// TestJobSpecParallelSim: the fields of the removed parallel simulation
// engine are rejected by name, with a pointer at sharding, instead of as
// a bare unknown field.
func TestJobSpecParallelSim(t *testing.T) {
	for _, field := range []string{"sim_workers", "sim_window"} {
		body := fmt.Sprintf(`{"arch":"fingers","graph":"Mi","pattern":"tc",%q:4}`, field)
		_, err := DecodeJobSpec([]byte(body))
		if err == nil {
			t.Fatalf("%s accepted", field)
		}
		for _, want := range []string{field, "parallel simulation engine was removed", "sim_shards"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", field, err, want)
			}
		}
	}
}

func TestJobSpecToOptionsRunsSimulate(t *testing.T) {
	spec := JobSpec{Arch: "flexminer", Graph: "As", Pattern: "tc", PEs: 2}
	opts, err := spec.ToOptions()
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.ResolveGraph()
	if err != nil {
		t.Fatal(err)
	}
	plans, err := spec.Plans()
	if err != nil {
		t.Fatal(err)
	}
	arch, err := spec.ArchValue()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(arch, g, plans, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Count == 0 {
		t.Error("spec-driven Simulate found no triangles on As")
	}

	// The same options must reproduce the directly configured run.
	direct, err := Simulate(ArchFlexMiner, g, plans, WithPEs(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Count != direct.Result.Count || rep.Result.Cycles != direct.Result.Cycles {
		t.Errorf("spec run (count=%d cycles=%d) != direct run (count=%d cycles=%d)",
			rep.Result.Count, rep.Result.Cycles, direct.Result.Count, direct.Result.Cycles)
	}
}

func TestJobSpecToOptionsRejectsInvalid(t *testing.T) {
	if _, err := (JobSpec{Arch: "fingers", Graph: "Mi", Pattern: "zzz"}).ToOptions(); err == nil {
		t.Error("ToOptions accepted an invalid pattern")
	}
}

func TestJobSpecJSONRoundTrip(t *testing.T) {
	f := false
	in := JobSpec{
		Arch: "fingers", Graph: "Lj", Pattern: "4cl", PEs: 20, IUs: 48,
		IsoArea: &f, CacheKB: 1024,
		SimShards: 4, TimeoutMS: 5000, Stats: true, RunTag: "sweep-1",
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeJobSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Arch != in.Arch || out.Graph != in.Graph || out.Pattern != in.Pattern ||
		out.PEs != in.PEs || out.IUs != in.IUs || out.CacheKB != in.CacheKB ||
		out.SimShards != in.SimShards ||
		out.TimeoutMS != in.TimeoutMS || out.Stats != in.Stats || out.RunTag != in.RunTag {
		t.Errorf("round trip mismatch: %+v != %+v", out, in)
	}
	if out.IsoArea == nil || *out.IsoArea {
		t.Error("IsoArea=false lost in round trip")
	}
	if out.PseudoDFS != nil {
		t.Error("unset PseudoDFS became set")
	}
}

func TestDecodeJobSpecRejectsUnknownFields(t *testing.T) {
	if _, err := DecodeJobSpec([]byte(`{"arch":"fingers","graph":"Mi","pattern":"tc","peez":4}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestJobSpecResolveGraph(t *testing.T) {
	g, err := JobSpec{Graph: "Mi"}.ResolveGraph()
	if err != nil || g == nil {
		t.Fatalf("dataset mnemonic: %v", err)
	}
	// A bare misspelled name surfaces the structured dataset error.
	_, err = JobSpec{Graph: "Mii"}.ResolveGraph()
	var nf *datasets.NotFoundError
	if !errors.As(err, &nf) {
		t.Fatalf("error %T %v, want *datasets.NotFoundError", err, err)
	}
	if nf.Suggestion != "Mi" {
		t.Errorf("suggestion %q, want Mi", nf.Suggestion)
	}
	// A path-shaped name surfaces the file error instead.
	_, err = JobSpec{Graph: "no/such/file.txt"}.ResolveGraph()
	if err == nil || errors.As(err, &nf) {
		t.Errorf("path-shaped miss: %v, want a file error", err)
	}
	if err != nil && !strings.Contains(err.Error(), "no/such/file.txt") {
		t.Errorf("file error %q does not name the path", err)
	}
}
