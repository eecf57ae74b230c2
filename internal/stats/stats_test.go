package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Max() != 0 || s.Quantile(0.5) != 0 || s.Count() != 0 {
		t.Error("zero-value summary not zeroed")
	}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.Count() != 5 || s.Sum() != 15 || s.Mean() != 3 || s.Max() != 5 {
		t.Errorf("summary = %v", s.String())
	}
	if got := s.Quantile(0.5); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := s.Quantile(1.0); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := s.Quantile(0.0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
}

func TestSummaryAddN(t *testing.T) {
	var s Summary
	s.AddN(7)
	if s.Sum() != 7 {
		t.Errorf("AddN sum = %v", s.Sum())
	}
}

func TestSummaryQuantileMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		var s Summary
		for _, v := range raw {
			s.AddN(int(v))
		}
		return s.Quantile(0.25) <= s.Quantile(0.5) &&
			s.Quantile(0.5) <= s.Quantile(0.75) &&
			s.Quantile(0.75) <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryInterleavedAddAndQuantile(t *testing.T) {
	var s Summary
	s.Add(10)
	_ = s.Quantile(0.5)
	s.Add(1) // must re-sort on the next quantile call
	if got := s.Quantile(0.0); got != 1 {
		t.Errorf("min after interleaved add = %v", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int{0, 1, 2, 3, 4, 7, 8, 1000} {
		h.Add(v)
	}
	if got := total(&h); got != 8 {
		t.Errorf("total = %d", got)
	}
	b := h.Buckets()
	if b[0] != 2 { // 0 and 1
		t.Errorf("bucket 0 = %d", b[0])
	}
	if b[1] != 2 { // 2 and 3
		t.Errorf("bucket 1 = %d", b[1])
	}
	if b[2] != 2 { // 4 and 7
		t.Errorf("bucket 2 = %d", b[2])
	}
	if b[3] != 1 { // 8
		t.Errorf("bucket 3 = %d", b[3])
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	if !strings.Contains(h.String(), "empty") {
		t.Error("empty histogram rendering")
	}
	h.Add(5)
	h.Add(6)
	if !strings.Contains(h.String(), "#") {
		t.Error("bar missing")
	}
}

func TestHistogramTotalMatchesAdds(t *testing.T) {
	f := func(raw []uint16) bool {
		var h Histogram
		for _, v := range raw {
			h.Add(int(v))
		}
		return total(&h) == int64(len(raw))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// total sums the histogram's bucket counts.
func total(h *Histogram) int64 {
	var sum int64
	for _, c := range h.Buckets() {
		sum += c
	}
	return sum
}
