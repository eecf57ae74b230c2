package setops_test

import (
	"fmt"

	"fingers/internal/setops"
)

func ExampleApply() {
	s := []uint32{1, 3, 5, 7}
	n := []uint32{3, 4, 5, 6}
	fmt.Println(setops.Apply(setops.OpIntersect, s, n))
	fmt.Println(setops.Apply(setops.OpSubtract, s, n))
	fmt.Println(setops.Apply(setops.OpAntiSubtract, s, n))
	// Output:
	// [3 5]
	// [1 7]
	// [4 6]
}

func ExampleBalance() {
	// Figure 8's subtraction through the segment pipeline: segment
	// pairing, then load balancing into intersect-unit workloads, each
	// streaming its long segment against its short segments.
	long := setops.Segment([]uint32{3, 5, 7, 12, 13, 15, 18, 22}, 4)
	short := setops.Segment([]uint32{11, 18}, 2)
	p := setops.Pair(long, short)
	for _, w := range setops.Balance(p, setops.OpSubtract, 2) {
		fmt.Printf("long segment %d × %d short segment(s): %d compare cycles\n",
			w.LongSeg, w.ShortCount, w.LongLen(p)+w.ShortLen(p))
	}
	// Output:
	// long segment 0 × 1 short segment(s): 6 compare cycles
	// long segment 1 × 1 short segment(s): 6 compare cycles
}

func ExamplePair() {
	long := setops.Segment([]uint32{2, 5, 9, 25, 26, 40}, 2)
	short := setops.Segment([]uint32{3, 12, 14, 27}, 2)
	p := setops.Pair(long, short)
	for i, ld := range p.Loads {
		fmt.Printf("long segment %d carries %d short segment(s)\n", i, ld.ShortCount)
	}
	// Output:
	// long segment 0 carries 1 short segment(s)
	// long segment 1 carries 2 short segment(s)
	// long segment 2 carries 1 short segment(s)
}
