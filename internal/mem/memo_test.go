package mem

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// lruModel is a plain LRU reference for Cache, written without any of
// its code: per set, the resident tags in recency order (least recent
// first), one lookup per line, and missed bytes sent to its own DRAM as
// one burst from the first missed line. Driving it beside a Cache checks
// the memo, touch and look paths together.
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

// tinyCacheConfig is small enough that the random workloads below evict
// constantly, exercising memo invalidation by way reuse.
func tinyCacheConfig() CacheConfig {
	return CacheConfig{CapacityBytes: 1024, LineBytes: 64, Ways: 2, HitLatency: 16}
}

// sameAsModel fails unless c's counters, its DRAM's counters and, per
// set, its valid tags in LRU-stamp order equal the model's.
func sameAsModel(t *testing.T, c *Cache, m *lruModel) {
	t.Helper()
	if c.stats != m.stats {
		t.Fatalf("stats diverged: got %+v, model %+v", c.stats, m.stats)
	}
	if got, want := c.backing.Stats(), m.dram.Stats(); got != want {
		t.Fatalf("DRAM stats diverged: got %+v, model %+v", got, want)
	}
	for i, set := range c.sets {
		lines := slices.DeleteFunc(slices.Clone(set), func(l cacheLine) bool { return !l.valid })
		slices.SortFunc(lines, func(a, b cacheLine) int { return cmp.Compare(a.lastUsed, b.lastUsed) })
		var tags []int64
		for _, l := range lines {
			tags = append(tags, l.tag)
		}
		if !slices.Equal(tags, m.sets[i]) {
			t.Fatalf("set %d holds tags %v by recency, model %v", i, tags, m.sets[i])
		}
	}
}

// TestMemoAccessEquivalence drives a cache and the LRU model through the
// same randomized access/probe sequence — a small working set for memo
// hits, a moving front for evictions — and requires identical completion
// cycles, probe answers, counters, and final line state.
func TestMemoAccessEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	memoized := NewCache(tinyCacheConfig(), NewDRAM(DefaultDRAMConfig()))
	model := newLRUModel(tinyCacheConfig())

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
			pg, pw := memoized.Probe(addr, bytes), model.probe(addr, bytes)
			if pg != pw {
				t.Fatalf("step %d: Probe(%d,%d) = %v, model %v", step, addr, bytes, pg, pw)
			}
			continue
		}
		dg := memoized.Access(now, addr, bytes)
		dw := model.access(now, addr, bytes)
		if dg != dw {
			t.Fatalf("step %d: Access(%d,%d,%d) = %d, model %d", step, now, addr, bytes, dg, dw)
		}
		now += Cycles(rng.Intn(40))
	}
	sameAsModel(t, memoized, model)
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
	// second access must take the memo path yet keep the model's counters.
	model := newLRUModel(tinyCacheConfig())
	for i := 0; i < 2; i++ {
		if g, w := c.Access(0, 64, 1), model.access(0, 64, 1); g != w {
			t.Fatalf("access %d: got %d want %d", i, g, w)
		}
	}
	sameAsModel(t, c, model)
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
	if g, w := c.Access(0, 0, 256), newLRUModel(tinyCacheConfig()).access(0, 0, 256); g != w {
		t.Fatalf("post-Reset access: got %d want %d", g, w)
	}
}
