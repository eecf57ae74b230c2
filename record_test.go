package fingers_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"fingers"
)

// TestNewRunRecord drives the one record builder over every
// architecture, with and without stats, unsharded and sharded, complete
// and cancelled, and checks the fields whose rules the builder owns.
func TestNewRunRecord(t *testing.T) {
	g := fingers.GenerateErdosRenyi(300, 1500, 7)
	pl := shardTestPlan(t, "tc")
	gi := fingers.NewGraphInfo("er", g)
	if st := fingers.Stats(g); gi.Name != "er" || gi.Vertices != st.Vertices || gi.Edges != st.Edges || gi.MaxDegree != st.MaxDegree {
		t.Fatalf("NewGraphInfo = %+v, stats %+v", gi, st)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	const pes, ius = 2, 24
	for _, arch := range []struct {
		arch fingers.Arch
		name string
		ius  int
	}{
		{fingers.ArchFingers, "fingers", ius},
		{fingers.ArchFlexMiner, "flexminer", 0},
		{fingers.ArchSISA, "sisa", 0},
	} {
		for _, stats := range []bool{false, true} {
			for _, shards := range []int{1, 2} {
				for _, partial := range []bool{false, true} {
					name := fmt.Sprintf("%s/stats=%v/shards=%d/partial=%v", arch.name, stats, shards, partial)
					t.Run(name, func(t *testing.T) {
						opts := []fingers.SimOption{fingers.WithPEs(pes), fingers.WithShards(shards)}
						if stats {
							opts = append(opts, fingers.WithStats())
						}
						if partial {
							opts = append(opts, fingers.WithContext(cancelled))
						}
						rep, err := fingers.Simulate(arch.arch, g, []*fingers.Plan{pl}, opts...)
						if (err != nil) != partial || rep.Partial != partial {
							t.Fatalf("Simulate: partial %v, err %v", rep.Partial, err)
						}
						rec := fingers.NewRunRecord(arch.arch, "test", gi, "tc", pes, ius, 0, rep)

						if rec.Schema != "fingers.run/v1" || rec.Arch != arch.name || rec.IUs != arch.ius {
							t.Errorf("schema %q arch %q ius %d, want fingers.run/v1 %q %d",
								rec.Schema, rec.Arch, rec.IUs, arch.name, arch.ius)
						}
						if rec.Experiment != "test" || rec.Pattern != "tc" || rec.PEs != pes || rec.Graph != gi {
							t.Errorf("identity fields %q %q %d %+v", rec.Experiment, rec.Pattern, rec.PEs, rec.Graph)
						}
						if rec.SharedCacheBytes != 4<<20 {
							t.Errorf("shared_cache_bytes %d, want the 4 MB default", rec.SharedCacheBytes)
						}
						if rec.Cycles != rep.Result.Cycles || rec.Count != rep.Result.Count || rec.Tasks != rep.Result.Tasks ||
							rec.Breakdown != rep.Result.Breakdown {
							t.Errorf("result fields differ from the report")
						}
						if rec.Partial != partial {
							t.Errorf("partial %v, want %v", rec.Partial, partial)
						}
						wantShards := 0
						if shards > 1 {
							wantShards = shards
						}
						if rec.SimShards != wantShards {
							t.Errorf("sim_shards %d, want %d", rec.SimShards, wantShards)
						}
						if rep.IU.TotalCycles > 0 {
							if arch.arch != fingers.ArchFingers || !stats {
								t.Errorf("IU stats on a run without them: %+v", rep.IU)
							}
							if rec.IUActiveRate != rep.IU.ActiveRate() || rec.IUBalanceRate != rep.IU.BalanceRate() || rec.IUActiveRate <= 0 {
								t.Errorf("IU rates %v/%v, report %v/%v", rec.IUActiveRate, rec.IUBalanceRate,
									rep.IU.ActiveRate(), rep.IU.BalanceRate())
							}
						} else if rec.IUActiveRate != 0 || rec.IUBalanceRate != 0 {
							t.Errorf("IU rates %v/%v without IU stats", rec.IUActiveRate, rec.IUBalanceRate)
						}
						if arch.arch == fingers.ArchFingers && stats && !partial && rep.IU.TotalCycles == 0 {
							t.Error("a complete FINGERS run with stats carries no IU stats")
						}
						wantPerPE := 0
						if stats || partial {
							wantPerPE = pes
						}
						if len(rec.PerPE) != wantPerPE || !reflect.DeepEqual(rec.PerPE, rep.PerPE) {
							t.Errorf("per_pe has %d rows, want %d matching the report", len(rec.PerPE), wantPerPE)
						}
					})
				}
			}
		}
	}

	rec := fingers.NewRunRecord(fingers.ArchFingers, "test", gi, "tc", 1, ius, 64<<10, fingers.SimReport{})
	if rec.SharedCacheBytes != 64<<10 {
		t.Errorf("explicit cache size %d, want %d", rec.SharedCacheBytes, 64<<10)
	}
}
