package fingers_test

import (
	"reflect"
	"testing"

	fingers "fingers"
	"fingers/internal/graph/gen"
	"fingers/internal/pattern"
	"fingers/internal/plan"
)

func shardTestPlan(t *testing.T, name string) *fingers.Plan {
	t.Helper()
	p, err := pattern.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return plan.MustCompile(p, plan.Options{})
}

// TestShardInvariance is the sharded mode's determinism oracle: on the
// quick-grid workload shape, embedding counts and task totals are
// bit-identical for every shard count (shards=1 is the unsharded run
// exactly), and for a fixed shard count the entire merged report —
// result and per-PE records — is bit-identical from run to run, however
// the host schedules the shard threads. Run under -race this also
// exercises the shards-on-OS-threads path for data races.
func TestShardInvariance(t *testing.T) {
	g := gen.PowerLawCluster(900, 5, 0.4, 7)
	for _, arch := range []fingers.Arch{fingers.ArchFingers, fingers.ArchFlexMiner, fingers.ArchSISA} {
		for _, pat := range []string{"tc", "tt", "cyc"} {
			pl := shardTestPlan(t, pat)
			base, err := fingers.Simulate(arch, g, []*fingers.Plan{pl},
				fingers.WithPEs(8), fingers.WithStats())
			if err != nil {
				t.Fatalf("%v/%s unsharded: %v", arch, pat, err)
			}
			for _, shards := range []int{1, 2, 4, 8} {
				var ref *fingers.SimReport
				for run := 0; run < 2; run++ {
					rep, err := fingers.Simulate(arch, g, []*fingers.Plan{pl},
						fingers.WithPEs(8), fingers.WithStats(), fingers.WithShards(shards))
					if err != nil {
						t.Fatalf("%v/%s shards=%d run %d: %v", arch, pat, shards, run, err)
					}
					if shards == 1 && rep.Result != base.Result {
						t.Errorf("%v/%s shards=1: result %+v, unsharded %+v", arch, pat, rep.Result, base.Result)
					}
					if rep.Result.Count != base.Result.Count {
						t.Errorf("%v/%s shards=%d: count %d, unsharded %d",
							arch, pat, shards, rep.Result.Count, base.Result.Count)
					}
					if rep.Result.Tasks != base.Result.Tasks {
						t.Errorf("%v/%s shards=%d: tasks %d, unsharded %d",
							arch, pat, shards, rep.Result.Tasks, base.Result.Tasks)
					}
					if rep.RootsDone != base.RootsDone || rep.RootsTotal != base.RootsTotal {
						t.Errorf("%v/%s shards=%d: roots %d/%d, unsharded %d/%d",
							arch, pat, shards, rep.RootsDone, rep.RootsTotal, base.RootsDone, base.RootsTotal)
					}
					if rep.Shards != shards {
						t.Errorf("%v/%s shards=%d: report says Shards=%d", arch, pat, shards, rep.Shards)
					}
					rep.ShardWallNS = nil // host timing, not part of the contract
					if ref == nil {
						r := rep
						ref = &r
					} else if !reflect.DeepEqual(*ref, rep) {
						t.Errorf("%v/%s shards=%d: merged report differs between runs", arch, pat, shards)
					}
				}
			}
		}
	}
}

// TestShardMergedBreakdownInvariant checks the merged-report telemetry
// contract: every per-PE record's breakdown buckets sum to the global
// merged makespan, PE ids cover 0..pes-1 exactly once in order, and the
// chip-wide breakdown totals makespan × PEs.
func TestShardMergedBreakdownInvariant(t *testing.T) {
	g := gen.PowerLawCluster(900, 5, 0.4, 7)
	pl := shardTestPlan(t, "tt")
	const pes = 8
	for _, shards := range []int{2, 4, 8} {
		rep, err := fingers.Simulate(fingers.ArchFingers, g, []*fingers.Plan{pl},
			fingers.WithPEs(pes), fingers.WithStats(), fingers.WithShards(shards))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got, want := rep.Result.Breakdown.Total(), rep.Result.Cycles*pes; got != want {
			t.Errorf("shards=%d: chip breakdown total %d, want makespan*pes %d", shards, got, want)
		}
		if len(rep.PerPE) != pes {
			t.Fatalf("shards=%d: %d per-PE records, want %d", shards, len(rep.PerPE), pes)
		}
		for i, r := range rep.PerPE {
			if r.PE != i {
				t.Errorf("shards=%d: record %d has PE id %d", shards, i, r.PE)
			}
			if r.Cycles != rep.Result.Cycles {
				t.Errorf("shards=%d: PE %d record cycles %d, want global %d",
					shards, i, r.Cycles, rep.Result.Cycles)
			}
			if got := r.Breakdown.Total(); got != rep.Result.Cycles {
				t.Errorf("shards=%d: PE %d breakdown total %d, want makespan %d",
					shards, i, got, rep.Result.Cycles)
			}
		}
	}
}

// TestShardClamping: more shards than PEs clamps so each shard keeps a
// PE; shards=0/1 run unsharded and report Shards=1 with no wall table.
func TestShardClamping(t *testing.T) {
	g := gen.PowerLawCluster(300, 4, 0.4, 7)
	pl := shardTestPlan(t, "tc")
	rep, err := fingers.Simulate(fingers.ArchFingers, g, []*fingers.Plan{pl},
		fingers.WithPEs(4), fingers.WithShards(64))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shards != 4 || len(rep.ShardWallNS) != 4 {
		t.Errorf("shards=64 over 4 PEs: got Shards=%d walls=%d, want 4/4", rep.Shards, len(rep.ShardWallNS))
	}
	for _, n := range []int{0, 1} {
		rep, err := fingers.Simulate(fingers.ArchFingers, g, []*fingers.Plan{pl},
			fingers.WithPEs(4), fingers.WithShards(n))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Shards != 1 || rep.ShardWallNS != nil {
			t.Errorf("shards=%d: got Shards=%d walls=%v, want unsharded", n, rep.Shards, rep.ShardWallNS)
		}
	}
	if _, err := fingers.Simulate(fingers.ArchFingers, g, []*fingers.Plan{pl},
		fingers.WithShards(-1)); err == nil {
		t.Error("negative shard count: want error")
	}
}

// TestShardTracedRun: a traced sharded run emits PE ids in the global
// id space and the same count as untraced.
func TestShardTracedRun(t *testing.T) {
	g := gen.PowerLawCluster(300, 4, 0.4, 7)
	pl := shardTestPlan(t, "tc")
	trc := &peCollector{}
	rep, err := fingers.Simulate(fingers.ArchFingers, g, []*fingers.Plan{pl},
		fingers.WithPEs(4), fingers.WithShards(4), fingers.WithTracer(trc))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerPE) != 4 {
		t.Fatalf("traced run: %d per-PE records, want 4", len(rep.PerPE))
	}
	if len(trc.seen) == 0 {
		t.Fatal("tracer saw no events")
	}
	for pe := range trc.seen {
		if pe < 0 || pe >= 4 {
			t.Errorf("tracer saw PE id %d outside the global id space [0,4)", pe)
		}
	}
	// With 4 shards of 1 PE each, every shard's events must arrive
	// renamed: seeing >1 distinct id proves the offset wrapper ran.
	if len(trc.seen) < 2 {
		t.Errorf("tracer saw only PE ids %v; want events from multiple shards", trc.seen)
	}
}

// peCollector records which PE ids produced telemetry events.
type peCollector struct{ seen map[int]bool }

func (c *peCollector) mark(pe int) {
	if c.seen == nil {
		c.seen = map[int]bool{}
	}
	c.seen[pe] = true
}

func (c *peCollector) TaskGroupBegin(pe, engine int, at fingers.Cycles, size int) { c.mark(pe) }
func (c *peCollector) TaskGroupEnd(pe int, at fingers.Cycles)                     { c.mark(pe) }
func (c *peCollector) SetOpIssue(pe int, at fingers.Cycles, kind string, longLen, shortLen, workloads int) {
	c.mark(pe)
}
func (c *peCollector) CacheAccess(pe int, at fingers.Cycles, bytes, lines, misses int64, done fingers.Cycles) {
	c.mark(pe)
}
func (c *peCollector) DRAMBurst(start, done fingers.Cycles, addr, bytes int64) {}
