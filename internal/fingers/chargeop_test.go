package fingers

import (
	"math/rand"
	"slices"
	"testing"

	"fingers/internal/accel"
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

// TestChargeOpMatchesBalance pins chargeOp, which pairs segments with a
// two-pointer walk and derives a set operation's workloads inline
// without materializing them, to the setops.Pair load table and the
// setops.Balance workloads it re-derives. A reference PE list-schedules
// Balance's workloads in order, each costing its long plus short segment
// lengths (an unpaired short segment its own length); both PEs must end
// with the same per-IU busy cycles and workload counts, and chargeOp's
// divider search steps must be Pair's, once per long-head chunk.
func TestChargeOpMatchesBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ops := []setops.Op{setops.OpIntersect, setops.OpSubtract, setops.OpAntiSubtract}
	geoms := [][2]int{{16, 4}, {5, 3}}
	newPE := func(cfg Config) *PE { return cfg.NewPE(accel.PEState{}).(*PE) }
	for trial := 0; trial < 200; trial++ {
		short := randomSortedSet(rng, 60, 400)
		long := randomSortedSet(rng, 200, 400)
		for _, op := range ops {
			for _, geom := range geoms {
				for _, maxLoad := range []int{1, 2, 3, 8} {
					cfg := DefaultConfig()
					cfg.LongSegLen, cfg.ShortSegLen, cfg.MaxLoad = geom[0], geom[1], maxLoad
					pe := newPE(cfg)
					steps, workloads := pe.chargeOp(&mine.SetOpExec{Kind: op, Short: short, Long: long}, 0, 0)

					p := setops.Pair(setops.Segment(long, geom[0]), setops.Segment(short, geom[1]))
					want := setops.Balance(p, op, maxLoad)
					ref := newPE(cfg)
					for _, w := range want {
						ref.schedule(mem.Cycles(w.LongLen(p) + w.ShortLen(p)))
					}
					chunks := max(1, (p.Long.NumSegments()+dividerLongHeads-1)/dividerLongHeads)
					if workloads != len(want) || steps != p.SearchSteps*chunks ||
						!slices.Equal(pe.iuBusy, ref.iuBusy) || !slices.Equal(pe.iuWl, ref.iuWl) {
						t.Fatalf("op=%v geom=%v maxLoad=%d |s|=%d |n|=%d: chargeOp %d workloads, %d search steps, IU busy %v; Balance %d, %d, %v",
							op, geom, maxLoad, len(short), len(long), workloads, steps, pe.iuBusy, len(want), p.SearchSteps*chunks, ref.iuBusy)
					}
				}
			}
		}
	}
}

// TestScheduleIsListScheduling checks schedule against the list scheduler
// it implements: every workload goes to the first least-busy IU a linear
// scan finds, through the idle phase, the switch to the heap and beyond.
func TestScheduleIsListScheduling(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 3, 24, 48} {
		cfg := DefaultConfig()
		cfg.NumIUs = n
		pe := cfg.NewPE(accel.PEState{}).(*PE)
		for w := 0; w < 8*n+20; w++ {
			want := 0
			for i, b := range pe.iuBusy {
				if b < pe.iuBusy[want] {
					want = i
				}
			}
			before := pe.iuWl[want]
			pe.schedule(mem.Cycles(rng.Intn(20)))
			if pe.iuWl[want] != before+1 {
				t.Fatalf("%d IUs, workload %d: not assigned to IU %d, the first least busy (busy %v)", n, w, want, pe.iuBusy)
			}
		}
	}
}
