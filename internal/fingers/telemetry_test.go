package fingers

import (
	"testing"

	"fingers/internal/graph/gen"
	"fingers/internal/mem"
	"fingers/internal/telemetry"
)

// TestBreakdownSumsToMakespan checks the attribution invariant: each
// PE's compute + memory-stall + overhead buckets equal its finishing
// time, and with the rollup's idle bucket they equal the makespan.
func TestBreakdownSumsToMakespan(t *testing.T) {
	g := gen.PowerLawCluster(400, 5, 0.6, 11)
	pls := plansFor(t, "tt")
	chip := mustChip(t, DefaultConfig(), 4, 0, g, pls)
	res := mustRun(t, chip)
	if res.Cycles == 0 {
		t.Fatal("empty run")
	}
	recs := chip.PERecords()
	if len(recs) != 4 {
		t.Fatalf("got %d PE records", len(recs))
	}
	var roll telemetry.Breakdown
	for _, r := range recs {
		bd := r.Breakdown
		if busy := bd.Compute + bd.MemStall + bd.Overhead; busy != r.FinishedAt {
			t.Errorf("PE %d: compute+stall+overhead = %d, finishing time %d", r.PE, busy, r.FinishedAt)
		}
		if bd.Total() != res.Cycles || r.Cycles != res.Cycles {
			t.Errorf("PE %d: breakdown total %d != makespan %d", r.PE, bd.Total(), res.Cycles)
		}
		if bd.Compute <= 0 || bd.MemStall < 0 || bd.Overhead < 0 || bd.Idle < 0 {
			t.Errorf("PE %d: implausible buckets %+v", r.PE, bd)
		}
		roll.Accumulate(bd)
	}
	if roll != res.Breakdown {
		t.Errorf("Result.Breakdown %+v != per-PE rollup %+v", res.Breakdown, roll)
	}
}

// TestTracerDoesNotPerturbTiming runs the same configuration with no
// tracer and with a counting tracer: results must be identical (tracing
// is observational) and the tracer must actually see events.
func TestTracerDoesNotPerturbTiming(t *testing.T) {
	g := gen.PowerLawCluster(300, 5, 0.6, 17)
	pls := plansFor(t, "tt")

	plain := mustRun(t, mustChip(t, DefaultConfig(), 3, 0, g, pls))

	var cnt telemetry.Counting
	chip := mustChip(t, DefaultConfig(), 3, 0, g, pls)
	chip.SetTracer(&cnt)
	traced := mustRun(t, chip)

	if plain != traced {
		t.Errorf("tracer changed the simulation:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
	if cnt.TaskGroups == 0 || cnt.SetOps == 0 || cnt.CacheAccesses == 0 || cnt.DRAMBursts == 0 {
		t.Errorf("tracer saw no events: %+v", cnt)
	}
	if cnt.CacheMisses == 0 || cnt.DRAMBytes == 0 {
		t.Errorf("miss/burst attribution empty: %+v", cnt)
	}
}

// TestNilTracerRecordsNothing checks that detaching the tracer restores
// the silent path: a tracer attached and then detached before Run sees
// zero events, and the run still matches the never-traced result.
func TestNilTracerRecordsNothing(t *testing.T) {
	g := gen.PowerLawCluster(300, 5, 0.6, 17)
	pls := plansFor(t, "tc")

	var cnt telemetry.Counting
	chip := mustChip(t, DefaultConfig(), 2, 0, g, pls)
	chip.SetTracer(&cnt)
	chip.SetTracer(nil)
	res := mustRun(t, chip)
	if cnt != (telemetry.Counting{}) {
		t.Errorf("nil tracer still recorded events: %+v", cnt)
	}
	want := mustRun(t, mustChip(t, DefaultConfig(), 2, 0, g, pls))
	if res != want {
		t.Errorf("nil-tracer run differs from plain run:\n%+v\n%+v", res, want)
	}
}

// TestChromeTraceHasEventsPerPE drives the Chrome exporter end-to-end
// and requires at least one event on every PE track.
func TestChromeTraceHasEventsPerPE(t *testing.T) {
	g := gen.PowerLawCluster(300, 5, 0.6, 23)
	pls := plansFor(t, "tt")
	const numPEs = 3
	chrome := telemetry.NewChrome()
	chrome.StartProcess("FINGERS")
	chip := mustChip(t, DefaultConfig(), numPEs, 0, g, pls)
	chip.SetTracer(chrome)
	mustRun(t, chip)

	perPE := map[int]int{}
	for _, e := range chrome.Events() {
		if e.Phase != "M" && e.Pid == 1 {
			perPE[e.Tid]++
		}
	}
	for pe := 0; pe < numPEs; pe++ {
		if perPE[pe] == 0 {
			t.Errorf("PE %d track has no events", pe)
		}
	}
}

// multi fans every event out to several tracers.
type multi []telemetry.Tracer

func (m multi) TaskGroupBegin(pe, engine int, at mem.Cycles, size int) {
	for _, t := range m {
		t.TaskGroupBegin(pe, engine, at, size)
	}
}

func (m multi) TaskGroupEnd(pe int, at mem.Cycles) {
	for _, t := range m {
		t.TaskGroupEnd(pe, at)
	}
}

func (m multi) SetOpIssue(pe int, at mem.Cycles, kind string, longLen, shortLen, workloads int) {
	for _, t := range m {
		t.SetOpIssue(pe, at, kind, longLen, shortLen, workloads)
	}
}

func (m multi) CacheAccess(pe int, at mem.Cycles, bytes, lines, misses int64, done mem.Cycles) {
	for _, t := range m {
		t.CacheAccess(pe, at, bytes, lines, misses, done)
	}
}

func (m multi) DRAMBurst(start, done mem.Cycles, addr, bytes int64) {
	for _, t := range m {
		t.DRAMBurst(start, done, addr, bytes)
	}
}

// TestMultiTracerFansOut checks that a chip run delivers the same event
// stream to every tracer a fan-out tracer holds.
func TestMultiTracerFansOut(t *testing.T) {
	g := gen.PowerLawCluster(200, 4, 0.5, 29)
	pls := plansFor(t, "tc")
	var a, b telemetry.Counting
	chip := mustChip(t, DefaultConfig(), 2, 0, g, pls)
	chip.SetTracer(multi{&a, &b})
	mustRun(t, chip)
	if a == (telemetry.Counting{}) || a != b {
		t.Errorf("fan-out mismatch: a=%+v b=%+v", a, b)
	}
}
