package setops

// Mark-and-probe kernels. When one sorted set S meets many neighbor lists
// in a row — every child of a search-tree node intersects the node's
// candidate set with its own neighbor list — merging pays |S| again for
// every partner. Marking S once in a full-universe bitset turns each
// later S ∩ N into a walk over N alone, one word load per element:
//
//	marks := make([]uint64, (numVertices+63)/64)
//	Mark(marks, s)
//	for _, n := range partners {
//		out = IntersectBitsInto(out[:0], n, marks)
//	}
//	Unmark(marks, s)
//
// The probe kernels are the *Bits family of adaptive.go, with the marked
// set in the bitset role; a mark bitset has the layout of a dense hub row.

// Mark sets the bit of every element of s in bits, which must cover
// every value in s.
func Mark(bits []uint64, s []uint32) {
	for _, v := range s {
		bits[v>>6] |= 1 << (v & 63)
	}
}

// Unmark clears the bits Mark(bits, s) set. It zeroes whole words, so it
// restores an all-zero bitset only when s was the sole set marked in it.
func Unmark(bits []uint64, s []uint32) {
	for _, v := range s {
		bits[v>>6] = 0
	}
}

// SubtractSubsetInto appends a − sub to dst and returns the extended
// slice, where sub must be a subset of a (such as a ∩ b, making the
// result a − b). It copies the runs of a between the elements of sub,
// galloping to each, in O(|sub| · log(|a|/|sub|)) comparisons plus the
// copy; dst must alias neither input.
func SubtractSubsetInto(dst, a, sub []uint32) []uint32 {
	i := 0
	for _, v := range sub {
		j := gallopSearch(a, i, v)
		dst = append(dst, a[i:j]...)
		i = j + 1
	}
	return append(dst, a[i:]...)
}
