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
package mem

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
	cfg      DRAMConfig
	nextFree []Cycles
	stats    DRAMStats
	obs      DRAMObserver
}

// SetObserver attaches (or, with nil, detaches) a burst observer.
func (d *DRAM) SetObserver(o DRAMObserver) { d.obs = o }

// NewDRAM builds a DRAM model from the config.
func NewDRAM(cfg DRAMConfig) *DRAM {
	if cfg.Channels < 1 {
		cfg.Channels = 1
	}
	return &DRAM{cfg: cfg, nextFree: make([]Cycles, cfg.Channels)}
}

// Access requests bytes at addr at time now and returns the completion
// cycle. Requests to a busy channel queue behind it (bandwidth model).
func (d *DRAM) Access(now Cycles, addr int64, bytes int64) Cycles {
	ch := int(uint64(addr) / 4096 % uint64(d.cfg.Channels))
	start := now
	if d.nextFree[ch] > start {
		start = d.nextFree[ch]
	}
	perChannel := d.cfg.BytesPerCycle / float64(d.cfg.Channels)
	transfer := Cycles(float64(bytes) / perChannel)
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

// Reset clears timing and counters, keeping the configuration.
func (d *DRAM) Reset() {
	for i := range d.nextFree {
		d.nextFree[i] = 0
	}
	d.stats = DRAMStats{}
}

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

type cacheLine struct {
	tag      int64
	valid    bool
	lastUsed int64
}

// Cache is a set-associative LRU cache backed by DRAM. It is shared by
// all PEs; accesses carry the requesting time so the interleaved
// multi-PE simulation keeps one coherent LRU state.
type Cache struct {
	cfg     CacheConfig
	sets    [][]cacheLine
	numSets int64
	backing *DRAM
	clock   int64 // LRU tick
	stats   CacheStats

	// memo caches line-walk geometry per byte range: the dominant access
	// pattern is re-fetching the same neighbor lists, and a validated memo
	// entry resolves such a fetch in O(lines) single compares instead of
	// O(lines × ways) scans with per-line address divisions. The table is
	// direct-mapped (collisions replace — entries are hints, losing one
	// only costs a slow walk), which keeps the per-access lookup a hash,
	// a mask, and one key compare.
	memo []memoEntry
	// rec, when non-nil, receives one wayRef per line from look — the
	// slow-walk recording that (re)builds a memo entry.
	rec *[]wayRef
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
	sets := make([][]cacheLine, numSets)
	for i := range sets {
		sets[i] = make([]cacheLine, cfg.Ways)
	}
	return &Cache{cfg: cfg, sets: sets, numSets: numSets, backing: backing,
		memo: make([]memoEntry, memoTableSlots)}
}

// memoTableSlots sizes the direct-mapped walk memo; must be a power of
// two. 8 Ki slots cover the hot neighbor lists of the bundled datasets
// with few collisions at ~400 KB per cache.
const memoTableSlots = 1 << 13

// memoHash spreads a memoKey over the table (SplitMix64-style mixing).
func memoHash(k memoKey) uint64 {
	h := uint64(k.first)*0x9E3779B97F4A7C15 + uint64(k.lines)*0xBF58476D1CE4E5B9
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	return h ^ h>>32
}

// memoFind returns the table's entry for key when it currently holds
// key, nil otherwise. Read-only.
func (c *Cache) memoFind(key memoKey) *memoEntry {
	e := &c.memo[memoHash(key)&(memoTableSlots-1)]
	if e.used && e.key == key {
		return e
	}
	return nil
}

// memoClaim claims key's slot for (re)recording, displacing whatever the
// slot held and resetting the ref list (its storage is reused).
func (c *Cache) memoClaim(key memoKey) *memoEntry {
	e := &c.memo[memoHash(key)&(memoTableSlots-1)]
	e.key = key
	e.used = true
	e.refs = e.refs[:0]
	return e
}

// tryMemo attempts the memoized all-hit fast path: if every ref of the
// range's memo entry still matches its way, the access is a pure hit walk
// and its bookkeeping (line-access counters, per-line LRU stamps, clock
// ticks) is replayed exactly as the slow walk would. Validation strictly
// precedes mutation so a failed attempt leaves no trace.
func (c *Cache) tryMemo(e *memoEntry) bool {
	for _, r := range e.refs {
		ln := &c.sets[r.set][r.way]
		if !ln.valid || ln.tag != r.tag {
			return false
		}
	}
	c.stats.LineAccesses += int64(len(e.refs))
	for _, r := range e.refs {
		c.clock++
		c.sets[r.set][r.way].lastUsed = c.clock
	}
	return true
}

// touch looks tag up in one set at LRU tick clock, updating replacement
// state in place: a hit refreshes the line's stamp, a miss installs the
// line over the LRU way (the last invalid way wins, otherwise the least
// recently used). It returns the way the line now occupies, so callers
// can memoize the location.
func touch(set []cacheLine, tag int64, clock int64) (hit bool, way int) {
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUsed = clock
			return true, i
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lastUsed < set[victim].lastUsed {
			victim = i
		}
	}
	set[victim] = cacheLine{tag: tag, valid: true, lastUsed: clock}
	return false, victim
}

// wayRef pins one cache line of a memoized byte range to the way it was
// last seen in. The ref is valid exactly while sets[set][way] still holds
// tag — the same condition under which the line is resident — so a memo
// entry whose refs all validate proves an all-hit walk without scanning
// ways or dividing addresses.
type wayRef struct {
	set int32
	way int32
	tag int64
}

// memoKey identifies one byte range at line granularity.
type memoKey struct {
	first int64 // first line index
	lines int64 // line count
}

// memoEntry is one direct-mapped table slot: the cached line-walk
// geometry of the byte range in key — the way locations of all its lines
// as of the last slow walk. Entries are hints, not authority — every use
// revalidates each ref against the current sets, so neither eviction nor
// slot displacement needs an invalidation protocol. The refs slice is
// reused across refreshes and displacements.
type memoEntry struct {
	key  memoKey
	used bool
	refs []wayRef
}

// resident reports whether tag is in the set, without touching LRU state.
func resident(set []cacheLine, tag int64) bool {
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// walkAccess walks every line of [addr, addr+bytes) through look, then
// charges the missed bytes to DRAM as one pipelined burst starting at the
// first missed line, and returns the completion cycle.
func (c *Cache) walkAccess(now Cycles, addr, bytes int64) Cycles {
	if bytes <= 0 {
		return now + c.cfg.HitLatency
	}
	first := addr / c.cfg.LineBytes
	last := (addr + bytes - 1) / c.cfg.LineBytes
	missedBytes := int64(0)
	firstMissAddr := int64(-1)
	for line := first; line <= last; line++ {
		if !c.look(line * c.cfg.LineBytes) {
			missedBytes += c.cfg.LineBytes
			if firstMissAddr < 0 {
				firstMissAddr = line * c.cfg.LineBytes
			}
		}
	}
	if missedBytes > 0 {
		return c.backing.Access(now+c.cfg.HitLatency, firstMissAddr, missedBytes)
	}
	return now + c.cfg.HitLatency
}

// look walks one line through its set, updating LRU state and counters.
func (c *Cache) look(lineAddr int64) bool {
	c.clock++
	setIdx := (lineAddr / c.cfg.LineBytes) % c.numSets
	tag := lineAddr / c.cfg.LineBytes / c.numSets
	c.stats.LineAccesses++
	hit, way := touch(c.sets[setIdx], tag, c.clock)
	if c.rec != nil {
		// The line is resident in `way` after touch, hit or fill.
		*c.rec = append(*c.rec, wayRef{set: int32(setIdx), way: int32(way), tag: tag})
	}
	if hit {
		return true
	}
	c.stats.LineMisses++
	return false
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
	key := memoKey{first: addr / c.cfg.LineBytes, lines: (addr+bytes-1)/c.cfg.LineBytes - addr/c.cfg.LineBytes + 1}
	if e := c.memoFind(key); e != nil && c.tryMemo(e) {
		return now + c.cfg.HitLatency
	}
	e := c.memoClaim(key)
	c.rec = &e.refs
	done := c.walkAccess(now, addr, bytes)
	c.rec = nil
	return done
}

// Probe reports whether the whole byte range is currently resident,
// without updating LRU state or statistics — the pseudo-DFS scheduler's
// implicit "hits return immediately" selection (§4.1).
func (c *Cache) Probe(addr int64, bytes int64) bool {
	if bytes <= 0 {
		return true
	}
	first := addr / c.cfg.LineBytes
	last := (addr + bytes - 1) / c.cfg.LineBytes
	if e := c.memoFind(memoKey{first: first, lines: last - first + 1}); e != nil {
		ok := true
		for _, r := range e.refs {
			ln := &c.sets[r.set][r.way]
			if !ln.valid || ln.tag != r.tag {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
		// Stale refs prove nothing either way; fall through to the walk.
	}
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

// Stats returns the hit/miss counters so far.
func (c *Cache) Stats() CacheStats { return c.stats }

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Reset invalidates all lines and clears counters and the walk memo.
func (c *Cache) Reset() {
	for i := range c.sets {
		for j := range c.sets[i] {
			c.sets[i][j] = cacheLine{}
		}
	}
	c.stats = CacheStats{}
	c.clock = 0
	for i := range c.memo {
		c.memo[i].used = false
	}
	c.rec = nil
}

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
