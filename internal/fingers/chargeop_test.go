package fingers

import (
	"math/rand"
	"slices"
	"testing"

	"fingers/internal/mem"
	"fingers/internal/mine"
	"fingers/internal/setops"
)

// randomSortedSet draws up to maxLen distinct values below maxVal, sorted.
func randomSortedSet(rng *rand.Rand, maxLen int, maxVal uint32) []uint32 {
	seen := map[uint32]bool{}
	var out []uint32
	for n := rng.Intn(maxLen + 1); len(out) < n; {
		if v := rng.Uint32() % maxVal; !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// TestChargeOpMatchesBalance pins chargeOp, which derives a set
// operation's workloads inline without materializing them, to the
// setops.Balance geometry it re-derives: the same workload count, and IU
// cycles equal to each workload's long plus short segment lengths (an
// unpaired short segment costing its own length).
func TestChargeOpMatchesBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ops := []setops.Op{setops.OpIntersect, setops.OpSubtract, setops.OpAntiSubtract}
	geoms := [][2]int{{16, 4}, {5, 3}}
	for trial := 0; trial < 200; trial++ {
		short := randomSortedSet(rng, 60, 400)
		long := randomSortedSet(rng, 200, 400)
		for _, op := range ops {
			for _, geom := range geoms {
				for _, maxLoad := range []int{1, 2, 3, 8} {
					cfg := DefaultConfig()
					cfg.LongSegLen, cfg.ShortSegLen, cfg.MaxLoad = geom[0], geom[1], maxLoad
					pe := cfg.NewPE(0, nil, nil, nil, nil)
					for i := range pe.iuKeys {
						pe.iuKeys[i] = int64(i)
					}
					_, workloads := pe.chargeOp(mine.SetOpExec{Kind: op, Short: short, Long: long}, 0, 0)

					p := setops.Pair(setops.Segment(long, geom[0]), setops.Segment(short, geom[1]))
					want := setops.Balance(p, op, maxLoad)
					var wantCycles, gotCycles mem.Cycles
					for _, w := range want {
						wantCycles += mem.Cycles(w.LongLen(p) + w.ShortLen(p))
					}
					for _, b := range pe.iuBusy {
						gotCycles += b
					}
					if workloads != len(want) || gotCycles != wantCycles {
						t.Fatalf("op=%v geom=%v maxLoad=%d |s|=%d |n|=%d: chargeOp %d workloads / %d IU cycles, Balance %d / %d",
							op, geom, maxLoad, len(short), len(long), workloads, gotCycles, len(want), wantCycles)
					}
				}
			}
		}
	}
}
