// Package mem models the accelerator's memory system: multi-channel
// DDR4-style DRAM with latency and bandwidth occupancy, and a
// set-associative LRU shared cache with miss statistics (paper §5: 4 MB
// shared cache, four channels of DDR4-2666 at 85 GB/s).
//
// The model is transaction-level: an access covers a byte range (e.g. one
// neighbor list) and returns the cycle at which the data is fully
// available, charging one exposed miss latency plus pipelined per-line
// transfers. This reproduces the behaviours the paper's evaluation turns
// on — streaming reuse, capacity pressure, and bandwidth saturation —
// without per-beat simulation.
//
// The shared cache stores only tags, one flat pointer-free array per
// cache with each set kept in recency order, so a lookup is a short scan
// of adjacent words and the cache is a single allocation.
package mem

import "math/bits"

// Cycles counts accelerator clock cycles (1 GHz in the default config).
type Cycles int64

// DRAMConfig describes the off-chip memory.
type DRAMConfig struct {
	// Channels is the number of independent DRAM channels.
	Channels int
	// LatencyCycles is the exposed access latency of one request.
	LatencyCycles Cycles
	// BytesPerCycle is the aggregate bandwidth across all channels.
	BytesPerCycle float64
}

// DefaultDRAMConfig matches the paper's setup: four channels of
// DDR4-2666 delivering 85 GB/s against a 1 GHz core clock.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{Channels: 4, LatencyCycles: 120, BytesPerCycle: 85}
}

// DRAMStats aggregates traffic counters.
type DRAMStats struct {
	Accesses   int64
	BytesMoved int64
}

// DRAMObserver receives one event per off-chip burst, for telemetry.
// Implementations must not mutate timing state; a nil observer (the
// default) adds no work to the access path.
type DRAMObserver interface {
	// DRAMBurst reports a burst that started occupying its channel at
	// start and delivered its last byte at done.
	DRAMBurst(start, done Cycles, addr, bytes int64)
}

// DRAM is the off-chip memory timing model. Each access picks a channel
// by address interleave and occupies its bandwidth for bytes divided by
// the per-channel rate, on top of the fixed latency.
type DRAM struct {
	cfg        DRAMConfig
	perChannel float64 // bytes per cycle of one channel
	nextFree   []Cycles
	stats      DRAMStats
	obs        DRAMObserver
}

// SetObserver attaches (or, with nil, detaches) a burst observer.
func (d *DRAM) SetObserver(o DRAMObserver) { d.obs = o }

// NewDRAM builds a DRAM model from the config.
func NewDRAM(cfg DRAMConfig) *DRAM {
	if cfg.Channels < 1 {
		cfg.Channels = 1
	}
	return &DRAM{cfg: cfg, perChannel: cfg.BytesPerCycle / float64(cfg.Channels),
		nextFree: make([]Cycles, cfg.Channels)}
}

// Access requests bytes at addr at time now and returns the completion
// cycle. Requests to a busy channel queue behind it (bandwidth model).
func (d *DRAM) Access(now Cycles, addr int64, bytes int64) Cycles {
	ch := int(uint64(addr) / 4096 % uint64(d.cfg.Channels))
	start := now
	if d.nextFree[ch] > start {
		start = d.nextFree[ch]
	}
	transfer := Cycles(float64(bytes) / d.perChannel)
	if transfer < 1 {
		transfer = 1
	}
	d.nextFree[ch] = start + transfer
	done := start + transfer + d.cfg.LatencyCycles
	d.stats.Accesses++
	d.stats.BytesMoved += bytes
	if d.obs != nil {
		d.obs.DRAMBurst(start, done, addr, bytes)
	}
	return done
}

// Stats returns the traffic counters so far.
func (d *DRAM) Stats() DRAMStats { return d.stats }

// CacheConfig describes a set-associative cache.
type CacheConfig struct {
	// CapacityBytes is the total data capacity.
	CapacityBytes int64
	// LineBytes is the cache-line size.
	LineBytes int64
	// Ways is the associativity.
	Ways int
	// HitLatency is charged on every access.
	HitLatency Cycles
}

// DefaultSharedCacheConfig matches the paper: 4 MB, 64 B lines, 16-way.
func DefaultSharedCacheConfig() CacheConfig {
	return CacheConfig{CapacityBytes: 4 << 20, LineBytes: 64, Ways: 16, HitLatency: 16}
}

// CacheStats aggregates line-granularity hit/miss counters.
type CacheStats struct {
	LineAccesses int64
	LineMisses   int64
}

// MissRate returns misses per access in [0,1].
func (s CacheStats) MissRate() float64 {
	if s.LineAccesses == 0 {
		return 0
	}
	return float64(s.LineMisses) / float64(s.LineAccesses)
}

// Cache is a set-associative LRU cache backed by DRAM. It is shared by
// all PEs; accesses carry the requesting time so the interleaved
// multi-PE simulation keeps one coherent LRU state.
//
// The line state is one flat array of tags, set-major: set s owns
// tags[s*ways : (s+1)*ways], most recent first, with empty ways (-1)
// trailing the resident tags. Only the recency order is kept, never a
// line's physical way, because LRU outcomes do not depend on it: a hit
// moves its tag to the front and a miss shifts the set down by one,
// over the first empty way or the least recent tag of a full set, and
// inserts at the front.
type Cache struct {
	cfg     CacheConfig
	tags    []int64
	ways    int64
	numSets int64
	// pow2 is set when LineBytes and numSets are powers of two: span
	// then shifts by lineShift and setShift and masks with numSets−1
	// instead of dividing.
	pow2                bool
	lineShift, setShift uint
	backing             *DRAM
	stats               CacheStats
}

// NewCache builds a cache from the config over the given DRAM.
func NewCache(cfg CacheConfig, backing *DRAM) *Cache {
	if cfg.Ways < 1 {
		cfg.Ways = 1
	}
	if cfg.LineBytes < 4 {
		cfg.LineBytes = 64
	}
	numSets := cfg.CapacityBytes / (cfg.LineBytes * int64(cfg.Ways))
	if numSets < 1 {
		numSets = 1
	}
	tags := make([]int64, numSets*int64(cfg.Ways))
	for i := range tags {
		tags[i] = -1
	}
	c := &Cache{cfg: cfg, tags: tags, ways: int64(cfg.Ways), numSets: numSets, backing: backing}
	if isPow2(cfg.LineBytes) && isPow2(numSets) {
		c.pow2 = true
		c.lineShift = uint(bits.TrailingZeros64(uint64(cfg.LineBytes)))
		c.setShift = uint(bits.TrailingZeros64(uint64(numSets)))
	}
	return c
}

// isPow2 reports whether n is a positive power of two.
func isPow2(n int64) bool { return n > 0 && n&(n-1) == 0 }

// span returns the first line of [addr, addr+bytes) (bytes > 0), its
// line count, and the set and tag of its first line. The range's lines
// fall in consecutive sets, so callers step the set and carry into the
// tag on wrap-around instead of dividing per line.
func (c *Cache) span(addr, bytes int64) (first, lines, set, tag int64) {
	if c.pow2 {
		first = addr >> c.lineShift
		lines = (addr+bytes-1)>>c.lineShift - first + 1
		return first, lines, first & (c.numSets - 1), first >> c.setShift
	}
	first = addr / c.cfg.LineBytes
	lines = (addr+bytes-1)/c.cfg.LineBytes - first + 1
	return first, lines, first % c.numSets, first / c.numSets
}

// set returns set s's ways, most recent first.
func (c *Cache) set(s int64) []int64 {
	return c.tags[s*c.ways : (s+1)*c.ways]
}

// scan returns the index in ways of tag, or else of the first empty way,
// or else of the least recent way.
func scan(ways []int64, tag int64) int {
	i, last := 0, len(ways)-1
	for i < last && ways[i] != tag && ways[i] >= 0 {
		i++
	}
	return i
}

// Access reads the byte range [addr, addr+bytes) at time now and returns
// the completion cycle. Hit lines cost the hit latency; missing lines are
// fetched from DRAM as one pipelined burst (a single exposed latency plus
// bandwidth occupancy for the missing bytes), modeling the streaming
// neighbor-list fetches of §3.3.
func (c *Cache) Access(now Cycles, addr int64, bytes int64) Cycles {
	if bytes <= 0 {
		return now + c.cfg.HitLatency
	}
	first, lines, s, tag := c.span(addr, bytes)
	c.stats.LineAccesses += lines
	firstMiss, missed := int64(-1), int64(0)
	for k := int64(0); k < lines; k++ {
		ways := c.set(s)
		i := scan(ways, tag)
		if ways[i] != tag {
			missed++
			if firstMiss < 0 {
				firstMiss = first + k
			}
		}
		copy(ways[1:i+1], ways[:i])
		ways[0] = tag
		if s++; s == c.numSets {
			s, tag = 0, tag+1
		}
	}
	if missed == 0 {
		return now + c.cfg.HitLatency
	}
	c.stats.LineMisses += missed
	lb := c.cfg.LineBytes
	return c.backing.Access(now+c.cfg.HitLatency, firstMiss*lb, missed*lb)
}

// Probe reports whether the whole byte range is currently resident,
// without updating LRU state or statistics — the pseudo-DFS scheduler's
// implicit "hits return immediately" selection (§4.1).
func (c *Cache) Probe(addr int64, bytes int64) bool {
	if bytes <= 0 {
		return true
	}
	_, lines, s, tag := c.span(addr, bytes)
	for ; lines > 0; lines-- {
		ways := c.set(s)
		if ways[scan(ways, tag)] != tag {
			return false
		}
		if s++; s == c.numSets {
			s, tag = 0, tag+1
		}
	}
	return true
}

// Stats returns the hit/miss counters so far.
func (c *Cache) Stats() CacheStats { return c.stats }

// Hierarchy bundles the chip-level shared memory system.
type Hierarchy struct {
	DRAM   *DRAM
	Shared *Cache
}

// NewHierarchy builds the default shared memory system, optionally
// overriding the shared-cache capacity (bytes; 0 keeps the default).
func NewHierarchy(sharedCapacity int64) *Hierarchy {
	dram := NewDRAM(DefaultDRAMConfig())
	cfg := DefaultSharedCacheConfig()
	if sharedCapacity > 0 {
		cfg.CapacityBytes = sharedCapacity
	}
	return &Hierarchy{DRAM: dram, Shared: NewCache(cfg, dram)}
}
