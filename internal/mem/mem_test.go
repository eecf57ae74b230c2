package mem

import (
	"testing"
)

func TestDRAMLatencyAndBandwidth(t *testing.T) {
	d := NewDRAM(DRAMConfig{Channels: 1, LatencyCycles: 100, BytesPerCycle: 10})
	done := d.Access(0, 0, 100) // 10 cycles transfer + 100 latency
	if done != 110 {
		t.Errorf("done = %d, want 110", done)
	}
	// A second access to the same channel queues behind the first.
	done2 := d.Access(0, 0, 100)
	if done2 != 120 {
		t.Errorf("done2 = %d, want 120", done2)
	}
	st := d.Stats()
	if st.Accesses != 2 || st.BytesMoved != 200 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDRAMChannelsIndependent(t *testing.T) {
	d := NewDRAM(DRAMConfig{Channels: 2, LatencyCycles: 10, BytesPerCycle: 8})
	// Addresses 0 and 4096 interleave onto different channels.
	a := d.Access(0, 0, 40)
	b := d.Access(0, 4096, 40)
	if a != b {
		t.Errorf("parallel channels should complete together: %d vs %d", a, b)
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	d := NewDRAM(DRAMConfig{Channels: 1, LatencyCycles: 100, BytesPerCycle: 64})
	c := NewCache(CacheConfig{CapacityBytes: 1 << 12, LineBytes: 64, Ways: 4, HitLatency: 5}, d)
	miss := c.Access(0, 0, 64)
	if miss <= 5 {
		t.Errorf("miss completed too fast: %d", miss)
	}
	hit := c.Access(miss, 0, 64)
	if hit != miss+5 {
		t.Errorf("hit latency = %d, want 5", hit-miss)
	}
	st := c.Stats()
	if st.LineAccesses != 2 || st.LineMisses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// One set (capacity = 2 lines, 2 ways): the third distinct line evicts
	// the least recently used.
	d := NewDRAM(DefaultDRAMConfig())
	c := NewCache(CacheConfig{CapacityBytes: 128, LineBytes: 64, Ways: 2, HitLatency: 1}, d)
	c.Access(0, 0, 1)   // miss, installs line 0
	c.Access(0, 64, 1)  // miss, installs line 1
	c.Access(0, 0, 1)   // hit, refreshes line 0
	c.Access(0, 128, 1) // miss, evicts line 1 (LRU)
	if !c.Probe(0, 1) {
		t.Error("line 0 evicted despite being MRU")
	}
	if c.Probe(64, 1) {
		t.Error("line 1 still resident despite eviction")
	}
	st := c.Stats()
	if st.LineMisses != 3 {
		t.Errorf("misses = %d, want 3", st.LineMisses)
	}
}

func TestCacheRangeAccessCountsAllLines(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	c := NewCache(DefaultSharedCacheConfig(), d)
	c.Access(0, 0, 256) // 4 lines
	st := c.Stats()
	if st.LineAccesses != 4 || st.LineMisses != 4 {
		t.Errorf("stats = %+v, want 4/4", st)
	}
	c.Access(100, 0, 256)
	st = c.Stats()
	if st.LineMisses != 4 {
		t.Errorf("refetch missed: %+v", st)
	}
}

func TestCacheMissRate(t *testing.T) {
	var s CacheStats
	if s.MissRate() != 0 {
		t.Error("empty miss rate not 0")
	}
	s = CacheStats{LineAccesses: 10, LineMisses: 3}
	if s.MissRate() != 0.3 {
		t.Errorf("miss rate = %v", s.MissRate())
	}
}

func TestProbeDoesNotDisturbState(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	c := NewCache(DefaultSharedCacheConfig(), d)
	before := c.Stats()
	if c.Probe(0, 4096) {
		t.Error("cold cache probe reported resident")
	}
	if c.Stats() != before {
		t.Error("probe changed statistics")
	}
}

func TestCacheZeroByteAccess(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	c := NewCache(DefaultSharedCacheConfig(), d)
	done := c.Access(7, 0, 0)
	if done != 7+c.cfg.HitLatency {
		t.Errorf("zero-byte access done = %d", done)
	}
	if !c.Probe(0, 0) {
		t.Error("zero-byte probe should be resident")
	}
}

func TestLargerCacheReducesMisses(t *testing.T) {
	// Stream a 64 kB working set twice through small and large caches.
	run := func(capacity int64) float64 {
		d := NewDRAM(DefaultDRAMConfig())
		c := NewCache(CacheConfig{CapacityBytes: capacity, LineBytes: 64, Ways: 16, HitLatency: 1}, d)
		now := Cycles(0)
		for pass := 0; pass < 2; pass++ {
			for addr := int64(0); addr < 64<<10; addr += 4096 {
				now = c.Access(now, addr, 4096)
			}
		}
		return c.Stats().MissRate()
	}
	small, large := run(8<<10), run(128<<10)
	if large >= small {
		t.Errorf("larger cache did not reduce miss rate: %v vs %v", large, small)
	}
}

func TestHierarchyDefaults(t *testing.T) {
	// The capacity is read off the tag array: one tag per line.
	capacity := func(c *Cache) int64 { return int64(len(c.tags)) * c.cfg.LineBytes }
	if got := capacity(NewHierarchy(0).Shared); got != 4<<20 {
		t.Errorf("default capacity = %d", got)
	}
	if got := capacity(NewHierarchy(2 << 20).Shared); got != 2<<20 {
		t.Errorf("override capacity = %d", got)
	}
}

type burstRecorder struct {
	start, done Cycles
	addr, bytes int64
	calls       int
}

func (b *burstRecorder) DRAMBurst(start, done Cycles, addr, bytes int64) {
	b.start, b.done, b.addr, b.bytes = start, done, addr, bytes
	b.calls++
}

func TestDRAMObserverSeesBursts(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	var rec burstRecorder
	d.SetObserver(&rec)
	done := d.Access(50, 1<<16, 256)
	if rec.calls != 1 {
		t.Fatalf("observer called %d times", rec.calls)
	}
	if rec.done != done || rec.addr != 1<<16 || rec.bytes != 256 {
		t.Errorf("burst fields: %+v, done=%d", rec, done)
	}
	if rec.start < 50 || rec.start > done {
		t.Errorf("burst start %d outside [50, %d]", rec.start, done)
	}
	d.SetObserver(nil)
	d.Access(done, 0, 64)
	if rec.calls != 1 {
		t.Error("detached observer still called")
	}
}

func TestDRAMObserverDoesNotChangeTiming(t *testing.T) {
	run := func(obs DRAMObserver) Cycles {
		d := NewDRAM(DefaultDRAMConfig())
		d.SetObserver(obs)
		t0 := d.Access(0, 0, 512)
		return d.Access(t0, 1<<20, 128)
	}
	if plain, observed := run(nil), run(&burstRecorder{}); plain != observed {
		t.Errorf("observer changed timing: %d vs %d", plain, observed)
	}
}
