package noc

import (
	"testing"

	"fingers/internal/mem"
)

func TestMeshShape(t *testing.T) {
	cases := []struct {
		pes        int
		cols, rows int
	}{
		{1, 1, 1},
		{4, 2, 2},
		{20, 5, 4},
		{40, 7, 6},
	}
	for _, c := range cases {
		n := New(DefaultConfig(), c.pes)
		cols, rows := n.cols, n.rows
		if cols != c.cols || rows != c.rows {
			t.Errorf("%d PEs: mesh %d×%d, want %d×%d", c.pes, cols, rows, c.cols, c.rows)
		}
		if cols*rows < c.pes {
			t.Errorf("%d PEs do not fit mesh %d×%d", c.pes, cols, rows)
		}
	}
}

func TestHopsSymmetricAndBounded(t *testing.T) {
	n := New(DefaultConfig(), 20)
	cols, rows := n.cols, n.rows
	maxHops := cols + rows
	for pe := 0; pe < 20; pe++ {
		h := n.Hops(pe)
		if h < 0 || h > maxHops {
			t.Errorf("PE %d: hops = %d", pe, h)
		}
	}
	// The PE at the cache node has zero hops but a minimum 1-hop trip.
	center := (rows/2)*cols + cols/2
	if n.Hops(center) != 0 {
		t.Errorf("center PE hops = %d", n.Hops(center))
	}
	if n.RoundTrip(center) != 2*DefaultConfig().HopLatency {
		t.Errorf("center round trip = %d", n.RoundTrip(center))
	}
}

func TestCornerFartherThanCenter(t *testing.T) {
	n := New(DefaultConfig(), 20)
	cols, rows := n.cols, n.rows
	center := (rows/2)*cols + cols/2
	if n.RoundTrip(0) <= n.RoundTrip(center) {
		t.Errorf("corner (%d) should pay more than center (%d)", n.RoundTrip(0), n.RoundTrip(center))
	}
}

func TestPortAddsLatency(t *testing.T) {
	dram := mem.NewDRAM(mem.DefaultDRAMConfig())
	cache := mem.NewCache(mem.DefaultSharedCacheConfig(), dram)
	n := New(DefaultConfig(), 4)
	port := NewPort(n, 0, cache)
	direct := cache.Access(0, 0, 64)
	through := port.Access(direct, 0, 64) // now a hit
	hitOnly := mem.DefaultSharedCacheConfig().HitLatency
	if through-direct != hitOnly+port.Trip {
		t.Errorf("port latency = %d, want hit %d + trip %d", through-direct, hitOnly, port.Trip)
	}
	if !port.Probe(0, 64) {
		t.Error("probe through port failed")
	}
}

func TestStringDescribesTopology(t *testing.T) {
	if New(DefaultConfig(), 20).String() == "" {
		t.Error("empty description")
	}
}

func TestZeroPEs(t *testing.T) {
	n := New(DefaultConfig(), 0)
	if n.RoundTrip(0) <= 0 {
		t.Error("degenerate mesh has no latency")
	}
}

type recordingObserver struct {
	pe     int
	at     mem.Cycles
	bytes  int64
	lines  int64
	misses int64
	done   mem.Cycles
	calls  int
}

func (r *recordingObserver) CacheAccess(pe int, at mem.Cycles, bytes, lines, misses int64, done mem.Cycles) {
	r.pe, r.at, r.bytes, r.lines, r.misses, r.done = pe, at, bytes, lines, misses, done
	r.calls++
}

func TestPortObserverSeesAccess(t *testing.T) {
	dram := mem.NewDRAM(mem.DefaultDRAMConfig())
	cache := mem.NewCache(mem.DefaultSharedCacheConfig(), dram)
	n := New(DefaultConfig(), 4)
	port := NewPort(n, 2, cache)
	var obs recordingObserver
	port.Obs = &obs
	done := port.Access(100, 0, 200) // cold: 4 lines, 4 misses
	if obs.calls != 1 {
		t.Fatalf("observer called %d times", obs.calls)
	}
	if obs.pe != 2 || obs.at != 100 || obs.bytes != 200 || obs.done != done {
		t.Errorf("observer saw pe=%d at=%d bytes=%d done=%d (port done %d)", obs.pe, obs.at, obs.bytes, obs.done, done)
	}
	if obs.lines != 4 || obs.misses != 4 {
		t.Errorf("cold access attribution: lines=%d misses=%d, want 4/4", obs.lines, obs.misses)
	}
	// A repeat access hits; the delta attribution must show zero misses.
	port.Access(done, 0, 200)
	if obs.misses != 0 || obs.lines != 4 {
		t.Errorf("hot access attribution: lines=%d misses=%d, want 4/0", obs.lines, obs.misses)
	}
}

func TestPortObserverDoesNotChangeTiming(t *testing.T) {
	mk := func(withObs bool) mem.Cycles {
		dram := mem.NewDRAM(mem.DefaultDRAMConfig())
		cache := mem.NewCache(mem.DefaultSharedCacheConfig(), dram)
		port := NewPort(New(DefaultConfig(), 4), 1, cache)
		if withObs {
			port.Obs = &recordingObserver{}
		}
		t0 := port.Access(0, 0, 512)
		return port.Access(t0, 4096, 512)
	}
	if plain, observed := mk(false), mk(true); plain != observed {
		t.Errorf("observer changed timing: %d vs %d", plain, observed)
	}
}
