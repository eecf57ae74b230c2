package flexminer

import (
	"testing"

	"fingers/internal/graph/gen"
	"fingers/internal/telemetry"
)

// TestFlexBreakdownSumsToMakespan checks the baseline's cycle
// attribution: per-PE compute + stall + overhead equals the finishing
// time, and the idle-completed buckets sum to the makespan.
func TestFlexBreakdownSumsToMakespan(t *testing.T) {
	g := gen.PowerLawCluster(300, 5, 0.6, 31)
	pls := compiled(t, "tt")
	chip := mustChip(t, DefaultConfig(), 3, 0, g, pls)
	res := mustRun(t, chip)
	var roll telemetry.Breakdown
	for _, r := range chip.PERecords() {
		bd := r.Breakdown
		if busy := bd.Compute + bd.MemStall + bd.Overhead; busy != r.FinishedAt {
			t.Errorf("PE %d: compute+stall+overhead = %d, finishing time %d", r.PE, busy, r.FinishedAt)
		}
		if bd.Total() != res.Cycles {
			t.Errorf("PE %d: breakdown total %d != makespan %d", r.PE, bd.Total(), res.Cycles)
		}
		roll.Accumulate(bd)
	}
	if roll != res.Breakdown {
		t.Errorf("Result.Breakdown %+v != rollup %+v", res.Breakdown, roll)
	}
	// The strict-DFS baseline exposes every fetch, so stalls must be a
	// visible share of the makespan on a cold cache.
	if res.Breakdown.MemStall == 0 {
		t.Error("FlexMiner run shows zero exposed memory stall")
	}
}

// TestFlexTracerSeesEventsWithoutPerturbing mirrors the FINGERS test on
// the baseline model.
func TestFlexTracerSeesEventsWithoutPerturbing(t *testing.T) {
	g := gen.PowerLawCluster(300, 5, 0.6, 37)
	pls := compiled(t, "tc")
	plain := mustRun(t, mustChip(t, DefaultConfig(), 2, 0, g, pls))
	var cnt telemetry.Counting
	chip := mustChip(t, DefaultConfig(), 2, 0, g, pls)
	chip.SetTracer(&cnt)
	traced := mustRun(t, chip)
	if plain != traced {
		t.Errorf("tracer changed the simulation:\n%+v\n%+v", plain, traced)
	}
	if cnt.TaskGroups == 0 || cnt.SetOps == 0 || cnt.CacheAccesses == 0 {
		t.Errorf("tracer saw no events: %+v", cnt)
	}
}
