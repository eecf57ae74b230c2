package mem

import (
	"math/rand"
	"testing"
)

// refAccess replays the pre-memo Access path: a plain walkAccess with no
// recording and no fast path. Driving a second cache through it gives a
// bit-exact reference for the memoized implementation.
func refAccess(c *Cache, now Cycles, addr, bytes int64) Cycles {
	return c.walkAccess(now, addr, bytes)
}

// refProbe replays the pre-memo Probe path.
func refProbe(c *Cache, addr, bytes int64) bool {
	if bytes <= 0 {
		return true
	}
	first := addr / c.cfg.LineBytes
	last := (addr + bytes - 1) / c.cfg.LineBytes
	for line := first; line <= last; line++ {
		lineAddr := line * c.cfg.LineBytes
		setIdx := (lineAddr / c.cfg.LineBytes) % c.numSets
		tag := lineAddr / c.cfg.LineBytes / c.numSets
		if !resident(c.sets[setIdx], tag) {
			return false
		}
	}
	return true
}

// tinyCacheConfig is small enough that the random workloads below evict
// constantly, exercising memo invalidation by way reuse.
func tinyCacheConfig() CacheConfig {
	return CacheConfig{CapacityBytes: 1024, LineBytes: 64, Ways: 2, HitLatency: 16}
}

func sameCacheState(t *testing.T, got, want *Cache) {
	t.Helper()
	if got.clock != want.clock {
		t.Fatalf("clock diverged: got %d want %d", got.clock, want.clock)
	}
	if got.stats != want.stats {
		t.Fatalf("stats diverged: got %+v want %+v", got.stats, want.stats)
	}
	for i := range want.sets {
		for j := range want.sets[i] {
			if got.sets[i][j] != want.sets[i][j] {
				t.Fatalf("set %d way %d diverged: got %+v want %+v",
					i, j, got.sets[i][j], want.sets[i][j])
			}
		}
	}
}

// TestMemoAccessEquivalence drives a memoized cache and a reference cache
// through the same randomized access/probe sequence — a small working set
// for memo hits, a moving front for evictions — and requires identical
// completion cycles, probe answers, counters, and final line state.
func TestMemoAccessEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dramA := NewDRAM(DefaultDRAMConfig())
	dramB := NewDRAM(DefaultDRAMConfig())
	memoized := NewCache(tinyCacheConfig(), dramA)
	reference := NewCache(tinyCacheConfig(), dramB)

	// Ranges overlap and repeat: ~16 hot neighbor lists plus a streaming
	// front that keeps evicting them.
	hot := make([][2]int64, 16)
	for i := range hot {
		hot[i] = [2]int64{int64(rng.Intn(64)) * 32, int64(1 + rng.Intn(300))}
	}
	front := int64(0)
	now := Cycles(0)
	for step := 0; step < 20000; step++ {
		var addr, bytes int64
		switch rng.Intn(4) {
		case 0: // streaming front
			addr, bytes = front, int64(64+rng.Intn(256))
			front += bytes
		default:
			h := hot[rng.Intn(len(hot))]
			addr, bytes = h[0], h[1]
		}
		if rng.Intn(5) == 0 {
			pg, pw := memoized.Probe(addr, bytes), refProbe(reference, addr, bytes)
			if pg != pw {
				t.Fatalf("step %d: Probe(%d,%d) = %v, reference %v", step, addr, bytes, pg, pw)
			}
			continue
		}
		dg := memoized.Access(now, addr, bytes)
		dw := refAccess(reference, now, addr, bytes)
		if dg != dw {
			t.Fatalf("step %d: Access(%d,%d,%d) = %d, reference %d", step, now, addr, bytes, dg, dw)
		}
		now += Cycles(rng.Intn(40))
	}
	sameCacheState(t, memoized, reference)
	if dramA.Stats() != dramB.Stats() {
		t.Fatalf("DRAM stats diverged: got %+v want %+v", dramA.Stats(), dramB.Stats())
	}
}

// TestMemoZeroAndEdgeBytes pins the degenerate ranges.
func TestMemoZeroAndEdgeBytes(t *testing.T) {
	c := NewCache(tinyCacheConfig(), NewDRAM(DefaultDRAMConfig()))
	if got := c.Access(0, 128, 0); got != c.cfg.HitLatency {
		t.Fatalf("zero-byte access: got %d want %d", got, c.cfg.HitLatency)
	}
	if !c.Probe(128, 0) {
		t.Fatal("zero-byte probe should be resident")
	}
	if c.stats.LineAccesses != 0 {
		t.Fatalf("zero-byte access counted lines: %+v", c.stats)
	}
	// One-byte range at a line boundary: exactly one line, twice — the
	// second access must take the memo path yet keep identical counters to
	// a reference.
	ref := NewCache(tinyCacheConfig(), NewDRAM(DefaultDRAMConfig()))
	for i := 0; i < 2; i++ {
		if g, w := c.Access(0, 64, 1), refAccess(ref, 0, 64, 1); g != w {
			t.Fatalf("access %d: got %d want %d", i, g, w)
		}
	}
	sameCacheState(t, c, ref)
}

// TestMemoSurvivesReset checks Reset drops stale geometry: entries from
// before a Reset must not report hits on the emptied cache.
func TestMemoSurvivesReset(t *testing.T) {
	dram := NewDRAM(DefaultDRAMConfig())
	c := NewCache(tinyCacheConfig(), dram)
	c.Access(0, 0, 256)
	if !c.Probe(0, 256) {
		t.Fatal("range should be resident after access")
	}
	c.Reset()
	dram.Reset()
	if c.Probe(0, 256) {
		t.Fatal("range resident after Reset")
	}
	ref := NewCache(tinyCacheConfig(), NewDRAM(DefaultDRAMConfig()))
	if g, w := c.Access(0, 0, 256), refAccess(ref, 0, 0, 256); g != w {
		t.Fatalf("post-Reset access: got %d want %d", g, w)
	}
}
