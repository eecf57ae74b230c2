package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// goldenEntry pins one cell's output at the default seed: the embedding
// count and, for simulated cells, the modelled makespan.
type goldenEntry struct {
	Count  uint64 `json:"count"`
	Cycles int64  `json:"cycles,omitempty"`
}

// goldenFile is the layout of golden.json: per workload, per cell key.
type goldenFile struct {
	Seed      int64                             `json:"seed"`
	Workloads map[string]map[string]goldenEntry `json:"workloads"`
}

//go:embed golden.json
var goldenJSON []byte

// loadGolden decodes the embedded golden file.
func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("bench: golden.json: %w", err)
	}
	return g, nil
}

// saveGolden writes the golden file with sorted keys.
func saveGolden(path string, g goldenFile) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checker validates every operation's output as it completes. Within a
// run, all implementations must agree on each embedding count (keyed by
// graph/pattern) and each cell must report the same modelled cycles
// every time; pin and expect then compare against an outside reference.
// A disagreement fails every operation of the key concerned.
type checker struct {
	log io.Writer

	mu      sync.Mutex
	counts  map[string]uint64
	cycles  map[string]int64
	cellOf  map[string]string // count key of every cell key observed
	ops     map[string]int    // operations per count key
	bad     map[string]int    // failed operations per count key
	errored int               // operations that returned no usable output
	notes   int
}

func newChecker(log io.Writer) *checker {
	return &checker{
		log:    log,
		counts: map[string]uint64{},
		cycles: map[string]int64{},
		cellOf: map[string]string{},
		ops:    map[string]int{},
		bad:    map[string]int{},
	}
}

// notef reports the first few mismatches on the log.
func (c *checker) notef(format string, args ...any) {
	if c.notes < 10 {
		fmt.Fprintf(c.log, "bench: FAIL "+format+"\n", args...)
	}
	c.notes++
}

// fail records an operation that produced no usable output.
func (c *checker) fail(what string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.errored++
	c.notef("%s: %v", what, err)
}

// observe records one operation's output: count under countKey and, when
// hasCycles, the makespan of cellKey. The first observation of a key sets
// what later ones must match.
func (c *checker) observe(cellKey, countKey string, count uint64, cycles int64, hasCycles bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops[countKey]++
	c.cellOf[cellKey] = countKey
	ok := true
	if want, seen := c.counts[countKey]; !seen {
		c.counts[countKey] = count
	} else if want != count {
		c.notef("%s: count %d, other implementations or passes gave %d", cellKey, count, want)
		ok = false
	}
	if hasCycles {
		if want, seen := c.cycles[cellKey]; !seen {
			c.cycles[cellKey] = cycles
		} else if want != cycles {
			c.notef("%s: %d cycles, an earlier pass gave %d", cellKey, cycles, want)
			ok = false
		}
	}
	if !ok {
		c.bad[countKey]++
	}
}

// expect compares a count key's agreed count with a reference; a
// mismatch fails every operation under the key.
func (c *checker) expect(countKey string, want uint64, source string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if got, seen := c.counts[countKey]; seen && got != want {
		c.notef("%s: count %d, %s gives %d", countKey, got, source, want)
		c.bad[countKey] = c.ops[countKey]
	}
}

// pin compares every observation with the golden entries of a workload:
// counts per count key and cycles per cell key. A cell observed but
// absent from the golden file fails too, so the file cannot go stale.
func (c *checker) pin(golden map[string]goldenEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.cellOf))
	for k := range c.cellOf {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, cellKey := range keys {
		countKey := c.cellOf[cellKey]
		want, ok := golden[cellKey]
		switch {
		case !ok:
			c.notef("%s: no golden entry (regenerate with -update)", cellKey)
			c.bad[countKey] = c.ops[countKey]
		case c.counts[countKey] != want.Count:
			c.notef("%s: count %d, golden %d", cellKey, c.counts[countKey], want.Count)
			c.bad[countKey] = c.ops[countKey]
		default:
			if got, sim := c.cycles[cellKey]; sim && got != want.Cycles {
				c.notef("%s: %d cycles, golden %d", cellKey, got, want.Cycles)
				c.bad[countKey] = c.ops[countKey]
			}
		}
	}
}

// entries returns every observed cell as a golden entry.
func (c *checker) entries() map[string]goldenEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string]goldenEntry{}
	for cellKey, countKey := range c.cellOf {
		out[cellKey] = goldenEntry{Count: c.counts[countKey], Cycles: c.cycles[cellKey]}
	}
	return out
}

// totals returns the operations attempted and failed so far.
func (c *checker) totals() (attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	attempted, failed = c.errored, c.errored
	for k, n := range c.ops {
		attempted += n
		failed += c.bad[k]
	}
	return attempted, failed
}
