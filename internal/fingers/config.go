// Package fingers models the FINGERS accelerator (paper §4): each PE
// augments the baseline with many parallel intersect units (IUs) fed by
// task dividers, and exploits all three levels of fine-grained
// parallelism —
//
//   - branch-level, via the pseudo-DFS task-group order that overlaps the
//     neighbor-list fetches of sibling tasks with computation (§4.1);
//   - set-level, by running all of a task's distinct candidate-set updates
//     concurrently on the IU array while streaming the new vertex's
//     neighbor list once (§3.3);
//   - segment-level, by segment-pairing every set operation across IUs
//     with load balancing and bitvector result aggregation (§4.2, §4.3).
//
// The model is functional plus transaction-level timing: embedding counts
// are exact (the same Engine as the software miner), and cycles are
// charged from the segment pipeline geometry, the IU list schedule, and
// the shared memory system. A PE embeds accel.PEState, the clock,
// counters and search-tree frame stack it shares with the FlexMiner
// model, and adds the task-group sizing and IU charging.
package fingers

import "fingers/internal/mem"

// dividerLongHeads is the long head-list capacity of one task divider
// match (§4.2): 15 long heads, a 240-element neighbor list at s_l = 16.
// The paper pairs them with 24 short heads (a 96-element candidate set
// at s_s = 4); the model chunks only the long head list, 15 heads per
// chunk.
const dividerLongHeads = 15

// Config parameterizes one FINGERS PE. The zero value is not valid; start
// from DefaultConfig.
type Config struct {
	// NumIUs is the number of intersect units per PE (paper default 24).
	NumIUs int
	// NumDividers is the number of task dividers per PE (default 12).
	NumDividers int
	// LongSegLen is the segment length of vertex neighbor lists (s_l=16).
	LongSegLen int
	// ShortSegLen is the segment length of candidate sets (s_s=4).
	ShortSegLen int
	// MaxLoad is the load-balance threshold: the largest number of short
	// segments one IU workload may carry before being split (§4.2).
	MaxLoad int
	// PrivateCacheBytes is the PE-private cache for candidate sets
	// (default 32 kB); larger sets spill through the shared cache.
	PrivateCacheBytes int64
	// StreamBufferBytes is the segment staging storage in front of the
	// IUs (2 × 8 kB); it bounds nothing in the timing model but is part
	// of the area model.
	StreamBufferBytes int64
	// TaskOverheadCycles is the fixed macro-pipeline cost per task.
	TaskOverheadCycles mem.Cycles
	// GroupSize fixes the pseudo-DFS task-group size; 0 selects it
	// adaptively as the minimum number of tasks that fills the IUs,
	// estimated from running-average set sizes (§4.1).
	GroupSize int
	// MaxGroupSize caps the adaptive group size to bound intermediate
	// data growth (§3.2).
	MaxGroupSize int
	// PseudoDFS enables the task-group order; disabling it degenerates to
	// the strict-DFS single-task schedule (the Figure 11 ablation).
	PseudoDFS bool
}

// DefaultConfig returns the paper's PE configuration (§5).
func DefaultConfig() Config {
	return Config{
		NumIUs:             24,
		NumDividers:        12,
		LongSegLen:         16,
		ShortSegLen:        4,
		MaxLoad:            2,
		PrivateCacheBytes:  32 << 10,
		StreamBufferBytes:  2 * (8 << 10),
		TaskOverheadCycles: 4,
		GroupSize:          0,
		MaxGroupSize:       16,
		PseudoDFS:          true,
	}
}

// WithIUs returns the config rescaled to n IUs under the iso-area rule of
// Figure 12: the product #IUs × s_l is held constant, so more IUs mean
// shorter segments (same stream-buffer area).
func (c Config) WithIUs(n int) Config {
	budget := c.NumIUs * c.LongSegLen
	c.NumIUs = n
	c.LongSegLen = budget / n
	if c.LongSegLen < 1 {
		c.LongSegLen = 1
	}
	return c
}

// WithIUsUnlimited returns the config with n IUs and the segment length
// left unchanged — the tt-unlimited series of Figure 12 where area grows.
func (c Config) WithIUsUnlimited(n int) Config {
	c.NumIUs = n
	return c
}
