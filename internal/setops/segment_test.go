package setops

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSegmentationBasics(t *testing.T) {
	data := []uint32{1, 2, 3, 4, 5, 6, 7}
	s := Segment(data, 3)
	if got := s.NumSegments(); got != 3 {
		t.Fatalf("NumSegments = %d, want 3", got)
	}
	if got := s.Seg(0); !eq(got, []uint32{1, 2, 3}) {
		t.Errorf("Seg(0) = %v", got)
	}
	if got := s.Seg(2); !eq(got, []uint32{7}) {
		t.Errorf("Seg(2) = %v", got)
	}
}

func TestSegmentationEmpty(t *testing.T) {
	s := Segment(nil, 4)
	if s.NumSegments() != 0 {
		t.Errorf("NumSegments(empty) = %d", s.NumSegments())
	}
}

func TestSegmentPanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Segment(…, 0) did not panic")
		}
	}()
	Segment([]uint32{1}, 0)
}

// TestPairFigure4 reproduces the pairing of Figure 4 in the paper: the
// short set {3,12,14,27,33,55} (segments of 2) against the long set
// {2,8,9,25,26,40,42,48,50,58,82,…} style ranges.
func TestPairFigure4(t *testing.T) {
	short := Segment([]uint32{3, 12, 14, 27, 33, 55}, 2)
	long := Segment([]uint32{2, 5, 9, 25, 26, 40, 42, 48, 50, 58}, 2)
	p := Pair(long, short)
	// Short seg [3,12] overlaps long segs [2,5] and [9,25].
	// Short seg [14,27] overlaps long segs [9,25] and [26,40].
	// Short seg [33,55] overlaps long segs [26,40], [42,48] and [50,58].
	wantLoads := []SegLoad{
		{ShortStart: 0, ShortCount: 1}, // [2,5] ← [3,12]
		{ShortStart: 0, ShortCount: 2}, // [9,25] ← [3,12],[14,27]
		{ShortStart: 1, ShortCount: 2}, // [26,40] ← [14,27],[33,55]
		{ShortStart: 2, ShortCount: 1}, // [42,48] ← [33,55]
		{ShortStart: 2, ShortCount: 1}, // [50,58] ← [33,55]
	}
	if len(p.Loads) != len(wantLoads) {
		t.Fatalf("got %d loads, want %d", len(p.Loads), len(wantLoads))
	}
	for i, want := range wantLoads {
		if p.Loads[i] != want {
			t.Errorf("load[%d] = %+v, want %+v", i, p.Loads[i], want)
		}
	}
	if p.SearchSteps <= 0 {
		t.Error("SearchSteps not accounted")
	}
}

func TestPairDisjointRanges(t *testing.T) {
	short := Segment([]uint32{1, 2, 3, 4}, 4)
	long := Segment([]uint32{100, 200}, 16)
	p := Pair(long, short)
	if p.Loads[0].ShortCount != 0 {
		t.Errorf("disjoint ranges paired: %+v", p.Loads[0])
	}
}

func TestBalanceMaxLoadSplit(t *testing.T) {
	// One long segment overlapped by 5 short segments, maxLoad 2 → 3 workloads.
	long := Segment([]uint32{0, 100}, 16)
	short := Segment([]uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2)
	p := Pair(long, short)
	ws := Balance(p, OpIntersect, 2)
	if len(ws) != 3 {
		t.Fatalf("got %d workloads, want 3", len(ws))
	}
	total := 0
	for _, w := range ws {
		if w.ShortCount > 2 {
			t.Errorf("workload exceeds maxLoad: %+v", w)
		}
		total += w.ShortCount
	}
	if total != 5 {
		t.Errorf("short segments covered = %d, want 5", total)
	}
}

func TestBalanceSkipsZeroLoadForIntersect(t *testing.T) {
	long := Segment([]uint32{1, 2, 50, 60, 100, 110}, 2)
	short := Segment([]uint32{55}, 4)
	p := Pair(long, short)
	if got := len(Balance(p, OpIntersect, 4)); got != 1 {
		t.Errorf("intersect workloads = %d, want 1", got)
	}
	// Anti-subtraction must keep the zero-load long segments.
	if got := len(Balance(p, OpAntiSubtract, 4)); got != 3 {
		t.Errorf("anti-subtract workloads = %d, want 3", got)
	}
}

func TestBalanceSubtractCoversUnpairedShorts(t *testing.T) {
	long := Segment([]uint32{50, 51}, 16)
	short := Segment([]uint32{1, 2, 3, 4, 50, 52, 53, 54, 100, 101}, 4)
	p := Pair(long, short)
	ws := Balance(p, OpSubtract, 4)
	seen := map[int]bool{}
	for _, w := range ws {
		for s := w.ShortStart; s < w.ShortStart+w.ShortCount; s++ {
			seen[s] = true
		}
	}
	for s := 0; s < short.NumSegments(); s++ {
		if !seen[s] {
			t.Errorf("short segment %d not covered by any workload", s)
		}
	}
}

func TestWorkloadLengths(t *testing.T) {
	long := Segment([]uint32{1, 2, 3, 4, 5}, 4)
	short := Segment([]uint32{2, 3}, 2)
	p := Pair(long, short)
	w := Workload{LongSeg: 0, ShortStart: 0, ShortCount: 1}
	if w.LongLen(p) != 4 || w.ShortLen(p) != 2 {
		t.Errorf("lengths = %d,%d want 4,2", w.LongLen(p), w.ShortLen(p))
	}
	unpaired := Workload{LongSeg: -1, ShortStart: 0, ShortCount: 1}
	if unpaired.LongLen(p) != 0 {
		t.Error("unpaired workload long length should be 0")
	}
}

// applyWorkloads reproduces op(s, n) from Balance's workloads alone.
// Each workload intersects its short range with its long segment, as an
// intersect unit does for every op (A − B = A − (A∩B), §4.3); the result
// is that intersection, or what it leaves of the segments the workloads
// cover on the surviving side: the short segments under subtraction, the
// long segments under anti-subtraction.
func applyWorkloads(op Op, s, n []uint32, longSegLen, shortSegLen, maxLoad int) []uint32 {
	p := Pair(Segment(n, longSegLen), Segment(s, shortSegLen))
	var common []uint32
	longCovered := make([]bool, p.Long.NumSegments())
	shortCovered := make([]bool, p.Short.NumSegments())
	for _, w := range Balance(p, op, maxLoad) {
		for i := w.ShortStart; i < w.ShortStart+w.ShortCount; i++ {
			shortCovered[i] = true
			if w.LongSeg >= 0 {
				common = IntersectInto(common, p.Short.Seg(i), p.Long.Seg(w.LongSeg))
			}
		}
		if w.LongSeg >= 0 {
			longCovered[w.LongSeg] = true
		}
	}
	survivors := func(seg Segmentation, covered []bool) []uint32 {
		var out []uint32
		for i, c := range covered {
			if c {
				out = append(out, seg.Seg(i)...)
			}
		}
		return Subtract(out, common)
	}
	switch op {
	case OpSubtract:
		return survivors(p.Short, shortCovered)
	case OpAntiSubtract:
		return survivors(p.Long, longCovered)
	}
	return common
}

// TestSegmentedApplyMatchesApply is the central fidelity property of the
// segment pipeline the FINGERS PE is charged from: pairing and balancing
// must hand the intersect units exactly the work that computes the plain
// merge, for all three operations and arbitrary segment geometries and
// load thresholds.
func TestSegmentedApplyMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := []Op{OpIntersect, OpSubtract, OpAntiSubtract}
	geoms := [][3]int{{16, 4, 3}, {4, 2, 1}, {1, 1, 1}, {64, 8, 2}, {3, 5, 2}}
	for trial := 0; trial < 400; trial++ {
		s := randomSet(rng, 60, 300)
		n := randomSet(rng, 120, 300)
		for _, op := range ops {
			for _, g := range geoms {
				if got, want := applyWorkloads(op, s, n, g[0], g[1], g[2]), Apply(op, s, n); !eq(got, want) {
					t.Fatalf("op=%v geom=%v s=%v n=%v: got %v want %v", op, g, s, n, got, want)
				}
			}
		}
	}
}

func TestSegmentedApplyQuick(t *testing.T) {
	f := func(sv, nv []uint32, opSel uint8) bool {
		s, n := mkset(sv), mkset(nv)
		op := Op(opSel % 3)
		return eq(applyWorkloads(op, s, n, DefaultLongSegLen, DefaultShortSegLen, 2), Apply(op, s, n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSegmentedApplyEmptyInputs(t *testing.T) {
	s := []uint32{1, 2, 3}
	if got := applyWorkloads(OpIntersect, nil, s, 16, 4, 2); len(got) != 0 {
		t.Errorf("∅∩s = %v", got)
	}
	if got := applyWorkloads(OpSubtract, s, nil, 16, 4, 2); !eq(got, s) {
		t.Errorf("s−∅ = %v", got)
	}
	if got := applyWorkloads(OpAntiSubtract, nil, s, 16, 4, 2); !eq(got, s) {
		t.Errorf("anti: s−∅ = %v", got)
	}
	if got := applyWorkloads(OpAntiSubtract, s, nil, 16, 4, 2); len(got) != 0 {
		t.Errorf("anti: ∅−s = %v", got)
	}
}

func TestCompareCyclesModel(t *testing.T) {
	// One long segment of 16 paired with 3 short segments of 4 is one
	// workload costing s_l + 3·s_s = 28 comparator cycles (§4.3).
	long := make([]uint32, 16)
	for i := range long {
		long[i] = uint32(i * 2)
	}
	short := []uint32{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23}
	p := Pair(Segment(long, 16), Segment(short, 4))
	ws := Balance(p, OpIntersect, 3)
	if len(ws) != 1 {
		t.Fatalf("workloads = %d, want 1", len(ws))
	}
	if c := ws[0].LongLen(p) + ws[0].ShortLen(p); c != 28 {
		t.Errorf("compare cycles = %d, want 28", c)
	}
}

// TestFigure8Subtraction replays the worked example of §4.3: short segment
// {11,18} paired with long segments {3,5,7,12} and {13,15,18,22} under
// subtraction must yield {11}.
func TestFigure8Subtraction(t *testing.T) {
	s := []uint32{11, 18}
	n := []uint32{3, 5, 7, 12, 13, 15, 18, 22}
	if got := applyWorkloads(OpSubtract, s, n, 4, 2, 2); !eq(got, []uint32{11}) {
		t.Errorf("Figure 8 subtraction = %v, want [11]", got)
	}
}
