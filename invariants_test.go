package fingers_test

import (
	"math/rand/v2"
	"testing"

	"fingers"
)

// invariantPatterns are the patterns FuzzChipInvariants draws from.
var invariantPatterns = []string{"tc", "tt", "4cl", "cyc", "dia"}

// FuzzChipInvariants runs a seeded power-law graph and pattern through
// Simulate on all three architectures, each under its own random chip
// configuration, and checks the laws that hold exactly for any
// configuration:
//   - the count equals fingers.Count;
//   - Tasks is equal across the architectures and their knobs;
//   - per-PE tasks and counts sum to the chip's;
//   - PEBusy ≤ PEs × Cycles;
//   - on an unsharded run, each PE's breakdown sums to the makespan;
//   - shared-cache line misses ≤ line accesses;
//   - the FINGERS IU active rate ≤ 1.
func FuzzChipInvariants(f *testing.F) {
	for seed := range uint64(40) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		g := fingers.GeneratePowerLawCluster(uint32(60+rng.IntN(201)), 2+rng.IntN(4), rng.Float64(), int64(rng.Uint32()))
		name := invariantPatterns[rng.IntN(len(invariantPatterns))]
		pat, err := fingers.PatternByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := fingers.CompilePlan(pat, fingers.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := fingers.Count(g, pl)
		tasks := int64(-1)
		for _, arch := range []fingers.Arch{fingers.ArchFingers, fingers.ArchFlexMiner, fingers.ArchSISA} {
			cfg := fingers.DefaultAcceleratorConfig()
			cfg.NumIUs = 1 + rng.IntN(48)
			cfg.GroupSize = rng.IntN(5)
			cfg.MaxLoad = 1 + rng.IntN(4)
			cfg.LongSegLen = 1 + rng.IntN(32)
			cfg.ShortSegLen = 1 + rng.IntN(8)
			cfg.PrivateCacheBytes = 64 << rng.IntN(10)
			cfg.PseudoDFS = rng.IntN(2) == 0
			pes, shards := 1+rng.IntN(5), 1+rng.IntN(3)
			cache := int64(4<<10) << rng.IntN(11)
			rep, err := fingers.Simulate(arch, g, []*fingers.Plan{pl}, fingers.WithAcceleratorConfig(cfg),
				fingers.WithPEs(pes), fingers.WithShards(shards), fingers.WithSharedCache(cache), fingers.WithStats())
			if err != nil {
				t.Fatalf("%v: %v", arch, err)
			}
			r := rep.Result
			where := func() string {
				return arch.String() + " " + name + " " + r.String()
			}
			if r.Count != want {
				t.Errorf("%s: count %d, want fingers.Count's %d", where(), r.Count, want)
			}
			if tasks >= 0 && r.Tasks != tasks {
				t.Errorf("%s: %d tasks, want %d as on the other archs", where(), r.Tasks, tasks)
			}
			tasks = r.Tasks
			var peTasks int64
			var peCount uint64
			for _, pr := range rep.PerPE {
				peTasks += pr.Tasks
				peCount += pr.Count
				if rep.Shards == 1 && pr.Breakdown.Total() != r.Cycles {
					t.Errorf("%s: PE %d breakdown sums to %d, want the makespan %d", where(), pr.PE, pr.Breakdown.Total(), r.Cycles)
				}
			}
			if len(rep.PerPE) != pes || peTasks != r.Tasks || peCount != r.Count {
				t.Errorf("%s: %d PE records sum to %d tasks and %d embeddings, want %d records, %d and %d",
					where(), len(rep.PerPE), peTasks, peCount, pes, r.Tasks, r.Count)
			}
			if r.PEBusy > fingers.Cycles(pes)*r.Cycles {
				t.Errorf("%s: PEBusy %d exceeds %d PEs × makespan", where(), r.PEBusy, pes)
			}
			if r.SharedCache.LineMisses > r.SharedCache.LineAccesses {
				t.Errorf("%s: %d line misses over %d accesses", where(), r.SharedCache.LineMisses, r.SharedCache.LineAccesses)
			}
			if rate := rep.IU.ActiveRate(); rate > 1 {
				t.Errorf("%s: IU active rate %v > 1", where(), rate)
			}
		}
	})
}
