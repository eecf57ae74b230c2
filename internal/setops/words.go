package setops

// Word-parallel kernels over full-universe bitsets (the layout of a
// dense hub row and of the mark-and-probe marks). When both operands of
// a set operation are bitsets, one 64-bit AND or AND-NOT settles 64
// candidates at once — the software analogue of FINGERS' parallel
// comparators — and the result's cardinality falls out of the same pass
// as a popcount.
//
// A word range [lo, hi) names the words a kernel reads and writes; words
// outside it are neither read nor written, so a caller can keep a
// result's valid words as a sub-range of a reused buffer (the software
// miner starts each range at its level's lower-bound word). dst may
// alias x or y: every kernel is word-wise.

import "math/bits"

// AndWords sets dst[i] = x[i] & y[i] for every word i in [lo, hi) and
// returns the popcount of the result.
func AndWords(dst, x, y []uint64, lo, hi int) int {
	dst, x, y = dst[lo:hi], x[lo:hi], y[lo:hi]
	n := 0
	for i := range dst {
		w := x[i] & y[i]
		dst[i] = w
		n += bits.OnesCount64(w)
	}
	return n
}

// AndNotWords sets dst[i] = x[i] &^ y[i] for every word i in [lo, hi)
// and returns the popcount of the result.
func AndNotWords(dst, x, y []uint64, lo, hi int) int {
	dst, x, y = dst[lo:hi], x[lo:hi], y[lo:hi]
	n := 0
	for i := range dst {
		w := x[i] &^ y[i]
		dst[i] = w
		n += bits.OnesCount64(w)
	}
	return n
}

// CountWords returns the popcount of x over the words [lo, hi).
func CountWords(x []uint64, lo, hi int) int {
	n := 0
	for _, w := range x[lo:hi] {
		n += bits.OnesCount64(w)
	}
	return n
}

// ClearBits clears the bit of every element of s in bits, which must
// cover every value in s: the per-bit inverse of Mark, turning a bitset
// B into B − s.
func ClearBits(bits []uint64, s []uint32) {
	for _, v := range s {
		bits[v>>6] &^= 1 << (v & 63)
	}
}

// NextBit returns the smallest value v in [from, end) whose bit is set
// in x, or end when there is none: bounded iteration over a bitset's
// elements,
//
//	for v := NextBit(x, first, end); v < end; v = NextBit(x, v+1, end) {
//		...
//	}
//
// end must not exceed 64·len(x).
func NextBit(x []uint64, from, end int) int {
	if from >= end {
		return end
	}
	i := from >> 6
	if w := x[i] >> (from & 63); w != 0 {
		return min(from+bits.TrailingZeros64(w), end)
	}
	for i++; i<<6 < end; i++ {
		if w := x[i]; w != 0 {
			return min(i<<6+bits.TrailingZeros64(w), end)
		}
	}
	return end
}

// DecodeWordsInto appends the elements of x's words [lo, hi) to dst in
// increasing order and returns the extended slice.
func DecodeWordsInto(dst []uint32, x []uint64, lo, hi int) []uint32 {
	for i := lo; i < hi; i++ {
		base := uint32(i) << 6
		for w := x[i]; w != 0; w &= w - 1 {
			dst = append(dst, base+uint32(bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// KeepWords reports whether a set of card elements held in a bitset's
// word range of the given length should stay a bitset rather than be
// decoded to an array. It applies ChooseFormat's rule to the range: a
// set keeps its words once it packs three elements per word, the
// density at which a bitmap container is no larger than the array it
// replaces. The rule errs toward arrays, whose kernels never scan empty
// words, so sparse hubs' small intersections decode.
func KeepWords(card, words int) bool {
	return words > 0 && ChooseFormat(card, uint32(words)<<6-1) == FormatBitmap
}
