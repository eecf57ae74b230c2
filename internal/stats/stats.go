// Package stats provides the small statistical containers the profiling
// and experiment code shares: streaming summaries and fixed-bucket
// histograms with text rendering.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary accumulates a stream of observations and reports moments and
// quantiles. The zero value is ready to use.
type Summary struct {
	values []float64
	sum    float64
	sorted bool
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	s.values = append(s.values, v)
	s.sum += v
	s.sorted = false
}

// AddN records an integer observation, a convenience for counters.
func (s *Summary) AddN(v int) { s.Add(float64(v)) }

// Count returns the number of observations.
func (s *Summary) Count() int { return len(s.values) }

// Sum returns the total of all observations.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, zero when empty.
func (s *Summary) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// Max returns the largest observation, zero when empty.
func (s *Summary) Max() float64 {
	max := 0.0
	for i, v := range s.values {
		if i == 0 || v > max {
			max = v
		}
	}
	return max
}

func (s *Summary) sort() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest rank; zero when
// empty.
func (s *Summary) Quantile(q float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	idx := int(math.Ceil(q*float64(len(s.values)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.values) {
		idx = len(s.values) - 1
	}
	return s.values[idx]
}

// String renders "n=… mean=… p50=… p95=… max=…".
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.0f p95=%.0f max=%.0f",
		s.Count(), s.Mean(), s.Quantile(0.5), s.Quantile(0.95), s.Max())
}

// Histogram counts observations into power-of-two buckets: bucket i holds
// values in [2^(i-1), 2^i), with bucket 0 holding zeros and ones.
type Histogram struct {
	buckets []int64
	total   int64
}

// Add records a non-negative observation.
func (h *Histogram) Add(v int) {
	b := 0
	for x := v; x > 1; x >>= 1 {
		b++
	}
	for len(h.buckets) <= b {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[b]++
	h.total++
}

// Buckets returns the raw bucket counts (bucket i ≈ values around 2^i).
func (h *Histogram) Buckets() []int64 { return append([]int64(nil), h.buckets...) }

// String renders an ASCII bar chart, one row per non-empty bucket.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "(empty)\n"
	}
	var max int64
	for _, c := range h.buckets {
		if c > max {
			max = c
		}
	}
	var sb strings.Builder
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		lo := 0
		if i > 0 {
			lo = 1 << uint(i-1)
		}
		hi := 1<<uint(i) - 1
		bar := strings.Repeat("#", int(40*c/max))
		fmt.Fprintf(&sb, "%10d-%-10d %10d %s\n", lo, hi, c, bar)
	}
	return sb.String()
}
