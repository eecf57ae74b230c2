package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// lruModel is a plain LRU reference for Cache, written without any of
// its code: per set, the resident tags in recency order (least recent
// first), one lookup per line with its own divisions, and missed bytes
// sent to its own DRAM as one burst from the first missed line.
type lruModel struct {
	cfg     CacheConfig
	numSets int64
	sets    [][]int64
	dram    *DRAM
	stats   CacheStats
}

func newLRUModel(cfg CacheConfig) *lruModel {
	numSets := cfg.CapacityBytes / (cfg.LineBytes * int64(cfg.Ways))
	return &lruModel{cfg: cfg, numSets: numSets, sets: make([][]int64, numSets), dram: NewDRAM(DefaultDRAMConfig())}
}

// touch looks one line up, making it the set's most recent, and reports
// whether it was resident. A miss evicts the least recent tag of a full
// set.
func (m *lruModel) touch(line int64) bool {
	set, tag := line%m.numSets, line/m.numSets
	tags := m.sets[set]
	m.stats.LineAccesses++
	hit := false
	if i := slices.Index(tags, tag); i >= 0 {
		tags = slices.Delete(tags, i, i+1)
		hit = true
	} else {
		m.stats.LineMisses++
		if len(tags) == m.cfg.Ways {
			tags = slices.Delete(tags, 0, 1)
		}
	}
	m.sets[set] = append(tags, tag)
	return hit
}

func (m *lruModel) access(now Cycles, addr, bytes int64) Cycles {
	if bytes <= 0 {
		return now + m.cfg.HitLatency
	}
	lb := m.cfg.LineBytes
	missed, firstMiss := int64(0), int64(-1)
	for line := addr / lb; line <= (addr+bytes-1)/lb; line++ {
		if !m.touch(line) {
			missed += lb
			if firstMiss < 0 {
				firstMiss = line * lb
			}
		}
	}
	if missed > 0 {
		return m.dram.Access(now+m.cfg.HitLatency, firstMiss, missed)
	}
	return now + m.cfg.HitLatency
}

func (m *lruModel) probe(addr, bytes int64) bool {
	lb := m.cfg.LineBytes
	for line := addr / lb; bytes > 0 && line <= (addr+bytes-1)/lb; line++ {
		if !slices.Contains(m.sets[line%m.numSets], line/m.numSets) {
			return false
		}
	}
	return true
}

// geometry returns a cache config of exactly sets sets of ways ways.
func geometry(ways, sets int) CacheConfig {
	return CacheConfig{CapacityBytes: int64(sets*ways) * 64, LineBytes: 64, Ways: ways, HitLatency: 16}
}

// sameAsModel fails unless c's counters, its DRAM's counters and, per
// set, its resident tags in recency order equal the model's, with every
// empty way behind the resident ones.
func sameAsModel(t *testing.T, c *Cache, m *lruModel) {
	t.Helper()
	if c.stats != m.stats {
		t.Fatalf("stats diverged: got %+v, model %+v", c.stats, m.stats)
	}
	if got, want := c.backing.Stats(), m.dram.Stats(); got != want {
		t.Fatalf("DRAM stats diverged: got %+v, model %+v", got, want)
	}
	if c.numSets != m.numSets {
		t.Fatalf("cache has %d sets, model %d", c.numSets, m.numSets)
	}
	for s := range c.numSets {
		ways := c.set(s)
		n := slices.Index(ways, -1)
		if n < 0 {
			n = len(ways)
		}
		if slices.ContainsFunc(ways[n:], func(tag int64) bool { return tag != -1 }) {
			t.Fatalf("set %d: a resident tag follows an empty way: %v", s, ways)
		}
		mostRecentFirst := slices.Clone(m.sets[s])
		slices.Reverse(mostRecentFirst)
		if !slices.Equal(ways[:n], mostRecentFirst) {
			t.Fatalf("set %d holds tags %v most recent first, model %v", s, ways[:n], mostRecentFirst)
		}
	}
}

// lruOp is one step of a workload: an access (or, with probe, a probe)
// of [addr, addr+bytes), then the clock advancing by dt.
type lruOp struct {
	probe       bool
	addr, bytes int64
	dt          Cycles
}

// matchesModel drives a cache of cfg and the LRU model through ops and
// requires identical completion cycles, probe answers, counters, and
// final line state.
func matchesModel(t *testing.T, cfg CacheConfig, ops []lruOp) {
	t.Helper()
	c := NewCache(cfg, NewDRAM(DefaultDRAMConfig()))
	model := newLRUModel(cfg)
	now := Cycles(0)
	for step, op := range ops {
		if op.probe {
			if pg, pw := c.Probe(op.addr, op.bytes), model.probe(op.addr, op.bytes); pg != pw {
				t.Fatalf("step %d: Probe(%d,%d) = %v, model %v", step, op.addr, op.bytes, pg, pw)
			}
			continue
		}
		if dg, dw := c.Access(now, op.addr, op.bytes), model.access(now, op.addr, op.bytes); dg != dw {
			t.Fatalf("step %d: Access(%d,%d,%d) = %d, model %d", step, now, op.addr, op.bytes, dg, dw)
		}
		now += op.dt
	}
	sameAsModel(t, c, model)
}

// hotAndFront returns a random workload of ~16 hot neighbor lists that
// overlap and repeat, plus a streaming front that keeps evicting them;
// every fifth step is a probe. Ranges are at most maxBytes long.
func hotAndFront(rng *rand.Rand, steps int, maxBytes int) []lruOp {
	hot := make([][2]int64, 16)
	for i := range hot {
		hot[i] = [2]int64{int64(rng.Intn(64)) * 32, int64(1 + rng.Intn(maxBytes))}
	}
	ops := make([]lruOp, steps)
	front := int64(0)
	for i := range ops {
		op := &ops[i]
		if rng.Intn(4) == 0 {
			op.addr, op.bytes = front, int64(64+rng.Intn(maxBytes-63))
			front += op.bytes
		} else {
			h := hot[rng.Intn(len(hot))]
			op.addr, op.bytes = h[0], h[1]
		}
		op.probe = rng.Intn(5) == 0
		op.dt = Cycles(rng.Intn(40))
	}
	return ops
}

// TestCacheMatchesLRUModel runs the hot-list-plus-front workload on four
// geometries against the LRU model.
func TestCacheMatchesLRUModel(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      CacheConfig
		maxBytes int
	}{
		// Small enough that the workload evicts constantly.
		{"tiny 2-way", geometry(2, 8), 300},
		{"direct-mapped", geometry(1, 8), 300},
		{"16-way 3 sets", geometry(16, 3), 300},
		// Ranges of up to 40 lines over 4 sets wrap past the last set
		// several times, carrying into the tag at each wrap.
		{"wrapping ranges", geometry(4, 4), 40 * 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			matchesModel(t, tc.cfg, hotAndFront(rand.New(rand.NewSource(5)), 20000, tc.maxBytes))
		})
	}
}

// FuzzCacheMatchesLRUModel checks a cache of fuzzed ways (1–16) and set
// count (1–16) against the LRU model over a fuzzed access/probe
// sequence, four bytes per step: kind and clock advance, two address
// bytes, and a length byte (0 is a zero-byte range).
func FuzzCacheMatchesLRUModel(f *testing.F) {
	f.Add(uint8(2), uint8(8), []byte{1, 0, 0, 64, 1, 0, 0, 64, 0, 0, 0, 64})
	f.Add(uint8(1), uint8(3), []byte{5, 200, 1, 255, 4, 10, 0, 0, 0, 200, 1, 255})
	f.Add(uint8(16), uint8(3), []byte{9, 0, 2, 100, 2, 0, 2, 100, 0, 0, 2, 100})
	f.Fuzz(func(t *testing.T, ways, sets uint8, seq []byte) {
		cfg := geometry(1+int(ways)%16, 1+int(sets)%16)
		var ops []lruOp
		for ; len(seq) >= 4; seq = seq[4:] {
			ops = append(ops, lruOp{
				probe: seq[0]&3 == 0,
				addr:  int64(seq[1]) | int64(seq[2])<<8,
				bytes: int64(seq[3]) * 8,
				dt:    Cycles(seq[0] >> 2),
			})
		}
		matchesModel(t, cfg, ops)
	})
}

// TestMemoZeroAndEdgeBytes pins the degenerate ranges.
func TestMemoZeroAndEdgeBytes(t *testing.T) {
	c := NewCache(geometry(2, 8), NewDRAM(DefaultDRAMConfig()))
	if got := c.Access(0, 128, 0); got != c.cfg.HitLatency {
		t.Fatalf("zero-byte access: got %d want %d", got, c.cfg.HitLatency)
	}
	if !c.Probe(128, 0) {
		t.Fatal("zero-byte probe should be resident")
	}
	if c.stats.LineAccesses != 0 {
		t.Fatalf("zero-byte access counted lines: %+v", c.stats)
	}
	// One-byte range at a line boundary: exactly one line, twice — a miss
	// and then a hit, each with the model's counters.
	model := newLRUModel(geometry(2, 8))
	for i := 0; i < 2; i++ {
		if g, w := c.Access(0, 64, 1), model.access(0, 64, 1); g != w {
			t.Fatalf("access %d: got %d want %d", i, g, w)
		}
	}
	sameAsModel(t, c, model)
}

// BenchmarkCacheAccess times one Access of a workload mixing hot
// neighbor lists (three in four accesses, re-fetched) with a streaming
// front (one in four, always new lines), at the 16-way geometries of
// the sim-fit (1 MB) and sim-thrash (128 kB) benchmark workloads.
func BenchmarkCacheAccess(b *testing.B) {
	for _, capacity := range []int64{1 << 20, 128 << 10} {
		b.Run(fmt.Sprintf("%dkB", capacity>>10), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			// 4k hot lists of 4–400 bytes over a 2 MB region: a working set
			// near the larger cache's size, beyond the smaller's.
			hot := make([][2]int64, 4096)
			for i := range hot {
				hot[i] = [2]int64{int64(rng.Intn(2<<20)) &^ 3, int64(4 + rng.Intn(100)*4)}
			}
			picks := make([]int32, 1<<16)
			for i := range picks {
				picks[i] = int32(rng.Intn(len(hot)))
			}
			cfg := DefaultSharedCacheConfig()
			cfg.CapacityBytes = capacity
			c := NewCache(cfg, NewDRAM(DefaultDRAMConfig()))
			front := int64(4 << 20)
			now := Cycles(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%4 == 0 {
					now = c.Access(now, front, 256)
					front += 256
					continue
				}
				h := hot[picks[i&(len(picks)-1)]]
				now = c.Access(now, h[0], h[1])
			}
		})
	}
}
