package setops

import "testing"

// TestPairEmptySegmentations covers the degenerate pairings: an empty
// long or short side must produce an all-zero load table (sized to the
// long side) and charge no search steps.
func TestPairEmptySegmentations(t *testing.T) {
	empty := Segment(nil, 4)
	full := Segment([]uint32{1, 2, 3, 4, 5}, 2)

	p := Pair(empty, full) // no long segments
	if len(p.Loads) != 0 || p.SearchSteps != 0 {
		t.Errorf("Pair(∅, s): loads=%v steps=%d, want none", p.Loads, p.SearchSteps)
	}

	p = Pair(full, empty) // no short segments
	if len(p.Loads) != full.NumSegments() {
		t.Fatalf("Pair(s, ∅): %d loads, want %d", len(p.Loads), full.NumSegments())
	}
	for i, ld := range p.Loads {
		if ld.ShortCount != 0 {
			t.Errorf("Pair(s, ∅): load[%d] = %+v, want zero", i, ld)
		}
	}
	if p.SearchSteps != 0 {
		t.Errorf("Pair(s, ∅): steps=%d, want 0", p.SearchSteps)
	}

	p = Pair(empty, empty)
	if len(p.Loads) != 0 || p.SearchSteps != 0 {
		t.Errorf("Pair(∅, ∅): loads=%v steps=%d, want none", p.Loads, p.SearchSteps)
	}
}

// TestPairBoundaryHeads pins the inclusive overlap semantics at segment
// boundaries: a short head equal to a long segment's max, and a short
// max equal to a long head, both count as overlap.
func TestPairBoundaryHeads(t *testing.T) {
	long := Segment([]uint32{10, 20, 30, 40}, 2) // ranges [10,20] and [30,40]
	short := Segment([]uint32{20, 30}, 1)        // heads exactly on the boundaries
	p := Pair(long, short)
	want := []SegLoad{
		{ShortStart: 0, ShortCount: 1}, // [10,20] ← {20}
		{ShortStart: 1, ShortCount: 1}, // [30,40] ← {30}
	}
	for i, w := range want {
		if p.Loads[i] != w {
			t.Errorf("load[%d] = %+v, want %+v", i, p.Loads[i], w)
		}
	}

	// One short value past the last long max must pair with nothing.
	p = Pair(long, Segment([]uint32{41}, 1))
	for i, ld := range p.Loads {
		if ld.ShortCount != 0 {
			t.Errorf("past-the-end head paired with load[%d] = %+v", i, ld)
		}
	}

	// One short value below the first long head must pair with nothing.
	p = Pair(long, Segment([]uint32{9}, 1))
	for i, ld := range p.Loads {
		if ld.ShortCount != 0 {
			t.Errorf("before-the-start head paired with load[%d] = %+v", i, ld)
		}
	}
}

// TestBalanceMaxLoadExactlyMet checks the split boundary: a long segment
// whose load equals maxLoad must stay a single workload, and one past it
// must split.
func TestBalanceMaxLoadExactlyMet(t *testing.T) {
	long := Segment([]uint32{0, 100}, 16)
	short := Segment([]uint32{1, 2, 3, 4, 5, 6}, 2) // 3 short segments
	p := Pair(long, short)
	if p.Loads[0].ShortCount != 3 {
		t.Fatalf("load = %+v, want ShortCount 3", p.Loads[0])
	}
	if ws := Balance(p, OpIntersect, 3); len(ws) != 1 {
		t.Errorf("load == maxLoad split into %d workloads, want 1", len(ws))
	}
	if ws := Balance(p, OpIntersect, 2); len(ws) != 2 {
		t.Errorf("load == maxLoad+1 split into %d workloads, want 2", len(ws))
	}
}
