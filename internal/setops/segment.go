package setops

// Default segment lengths from the paper (§3.4): vertex neighbor lists
// (the long input) are pre-divided into read-only segments of 16 elements,
// and candidate vertex sets (the short input) into segments of 4 elements.
const (
	DefaultLongSegLen  = 16
	DefaultShortSegLen = 4
)

// Segmentation is a sorted set divided into fixed-length segments of
// distinct, non-overlapping ranges. The last segment may be shorter.
type Segmentation struct {
	Data   []uint32
	SegLen int
}

// Segment divides data into segments of segLen elements.
func Segment(data []uint32, segLen int) Segmentation {
	if segLen <= 0 {
		panic("setops: segment length must be positive")
	}
	return Segmentation{Data: data, SegLen: segLen}
}

// NumSegments returns the number of segments, zero for an empty set.
func (s Segmentation) NumSegments() int {
	return (len(s.Data) + s.SegLen - 1) / s.SegLen
}

// Seg returns the i-th segment as a subslice of the underlying data.
func (s Segmentation) Seg(i int) []uint32 {
	lo := i * s.SegLen
	hi := lo + s.SegLen
	if hi > len(s.Data) {
		hi = len(s.Data)
	}
	return s.Data[lo:hi]
}

// SegSize returns len(Seg(i)) without forming the subslice — segments
// are contiguous, so the size is pure index arithmetic.
func (s Segmentation) SegSize(i int) int {
	lo := i * s.SegLen
	hi := lo + s.SegLen
	if hi > len(s.Data) {
		hi = len(s.Data)
	}
	return hi - lo
}

// SpanSize returns the total element count of count consecutive segments
// starting at segment start: len(Seg(start)) + … + len(Seg(start+count-1)).
func (s Segmentation) SpanSize(start, count int) int {
	lo := start * s.SegLen
	hi := lo + count*s.SegLen
	if hi > len(s.Data) {
		hi = len(s.Data)
	}
	return hi - lo
}

// segMin and segMax return the value range covered by segment i.
func (s Segmentation) segMin(i int) uint32 { return s.Data[i*s.SegLen] }

func (s Segmentation) segMax(i int) uint32 {
	hi := (i+1)*s.SegLen - 1
	if hi >= len(s.Data) {
		hi = len(s.Data) - 1
	}
	return s.Data[hi]
}

// SegLoad records, for one long segment, which short segments overlap it —
// one column of the task divider's load table (§4.2, Figure 7).
type SegLoad struct {
	// ShortStart is the index of the first overlapping short segment.
	ShortStart int
	// ShortCount is the number of overlapping short segments (the load).
	ShortCount int
}

// Pairing is the result of matching the segments of a long and a short set
// by overlapping value ranges: the task divider's load table.
type Pairing struct {
	Long, Short Segmentation
	// Loads has one entry per long segment.
	Loads []SegLoad
	// SearchSteps counts the total binary-search comparisons performed
	// while streaming short heads through the long head tree, used by the
	// timing model of the task divider.
	SearchSteps int
}

// Pair computes the load table pairing every long segment with the short
// segments whose value ranges overlap it. Both inputs must be sorted.
//
// The hardware streams each short head through a binary tree of long heads
// (Figure 7); the equivalent software join here walks both segment lists
// once and charges ceil(log2) comparisons per short segment to
// SearchSteps, matching the hardware's work.
func Pair(long, short Segmentation) Pairing {
	nl, ns := long.NumSegments(), short.NumSegments()
	p := Pairing{Long: long, Short: short, Loads: make([]SegLoad, nl)}
	if nl == 0 || ns == 0 {
		return p
	}
	depth := 1
	for 1<<depth < nl+1 {
		depth++
	}
	p.SearchSteps = ns * depth
	j := 0 // current long segment
	for i := 0; i < ns; i++ {
		sMin, sMax := short.segMin(i), short.segMax(i)
		for j < nl && long.segMax(j) < sMin {
			j++
		}
		for k := j; k < nl && long.segMin(k) <= sMax; k++ {
			ld := &p.Loads[k]
			if ld.ShortCount == 0 {
				ld.ShortStart = i
			}
			ld.ShortCount++
		}
	}
	return p
}

// Workload is one unit of work issued to an intersect unit: one long
// segment merged against a contiguous range of paired short segments. For
// subtraction, a workload may instead carry a short segment with no
// overlapping long segment (whose elements all survive).
type Workload struct {
	// LongSeg is the long segment index, or -1 for an unpaired-short
	// workload (subtraction only).
	LongSeg int
	// ShortStart and ShortCount give the range of short segments.
	ShortCount int
	ShortStart int
}

// LongLen returns the element count of the workload's long segment.
func (w Workload) LongLen(p Pairing) int {
	if w.LongSeg < 0 {
		return 0
	}
	return len(p.Long.Seg(w.LongSeg))
}

// ShortLen returns the total element count of the workload's short range.
func (w Workload) ShortLen(p Pairing) int {
	n := 0
	for i := 0; i < w.ShortCount; i++ {
		n += len(p.Short.Seg(w.ShortStart + i))
	}
	return n
}

// Balance converts a pairing into per-IU workloads under the given
// operation, applying the paper's two load-balancing rules (§4.2):
//
//  1. long segments with load 0 are omitted, except for anti-subtraction
//     where their elements survive and must still flow to the collector;
//  2. a long segment whose load exceeds maxLoad is split across multiple
//     workloads of at most maxLoad short segments each.
//
// For subtraction, short segments that overlap no long segment survive
// wholesale; they are emitted as LongSeg = -1 workloads so the result
// collector sees every short segment exactly once, in order.
func Balance(p Pairing, op Op, maxLoad int) []Workload {
	if maxLoad <= 0 {
		maxLoad = 1
	}
	var out []Workload
	nl := p.Long.NumSegments()
	switch op {
	case OpSubtract:
		// The bitvectors of a subtraction are associated with *short*
		// segments, and short ranges grow monotonically with the long
		// segment index, so emitting workloads in long-segment order keeps
		// results for the same short segment adjacent for the collector.
		// Short segments overlapping no long segment survive wholesale and
		// are interleaved as LongSeg = -1 workloads at their sorted place.
		ns := p.Short.NumSegments()
		touched := make([]bool, ns)
		for j := 0; j < nl; j++ {
			ld := p.Loads[j]
			for s := ld.ShortStart; s < ld.ShortStart+ld.ShortCount; s++ {
				touched[s] = true
			}
		}
		next := 0 // next unpaired short segment to consider emitting
		emitUnpairedBelow := func(bound int) {
			for ; next < bound; next++ {
				if !touched[next] {
					out = append(out, Workload{LongSeg: -1, ShortStart: next, ShortCount: 1})
				}
			}
		}
		for j := 0; j < nl; j++ {
			ld := p.Loads[j]
			if ld.ShortCount == 0 {
				continue
			}
			emitUnpairedBelow(ld.ShortStart)
			for s := 0; s < ld.ShortCount; s += maxLoad {
				n := ld.ShortCount - s
				if n > maxLoad {
					n = maxLoad
				}
				out = append(out, Workload{LongSeg: j, ShortStart: ld.ShortStart + s, ShortCount: n})
			}
		}
		emitUnpairedBelow(ns)
	default:
		for j := 0; j < nl; j++ {
			ld := p.Loads[j]
			if ld.ShortCount == 0 {
				if op == OpAntiSubtract {
					out = append(out, Workload{LongSeg: j})
				}
				continue
			}
			for s := 0; s < ld.ShortCount; s += maxLoad {
				n := ld.ShortCount - s
				if n > maxLoad {
					n = maxLoad
				}
				out = append(out, Workload{LongSeg: j, ShortStart: ld.ShortStart + s, ShortCount: n})
			}
		}
	}
	return out
}
