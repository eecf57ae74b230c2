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

// Format identifies the physical representation of one set.
type Format uint8

const (
	// FormatArray stores the set as a strictly increasing []uint32.
	FormatArray Format = iota
	// FormatBitmap stores the set as a compressed bitmap of nonzero
	// 64-bit word containers (SISA's dense-set format).
	FormatBitmap
)

// String returns the conventional short name of the format.
func (f Format) String() string {
	switch f {
	case FormatArray:
		return "array"
	case FormatBitmap:
		return "bitmap"
	default:
		return "unknown-format"
	}
}

// bitmapWordBytes is the in-memory cost of one compressed-bitmap
// container: a 4-byte key plus an 8-byte word.
const bitmapWordBytes = 12

// ChooseFormat picks the cheaper representation for a set of the given
// cardinality whose values span the half-open range [first, first+span)
// — span is last−first+1 for a nonempty set. An array costs 4 bytes per
// element; a bitmap costs at most 12 bytes per container (4-byte key +
// 8-byte word) and the span bounds the container count by span/64+1, so
// the bitmap wins once the set packs at least three elements per
// potential container. Dense sets (cliques, hubs of community graphs)
// clear that easily; sparse power-law tails never do.
func ChooseFormat(card int, span uint32) Format {
	if card == 0 {
		return FormatArray
	}
	maxContainers := int(span>>6) + 1
	if 4*card >= bitmapWordBytes*maxContainers {
		return FormatBitmap
	}
	return FormatArray
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

// Bounded popcounts. The miner's leaf fast path counts candidates inside
// an open interval: v > lo when hasLo, v < hi when hasHi (the
// symmetry-breaking window of plan restrictions). These count directly
// on a bitset's words, masking only the window's edge words.

// window is the open window (lo, hi) resolved to words: the inclusive
// word range [ws, we] and the masks selecting the in-window bits of its
// first and last word. An empty window has ws > we.
type window struct {
	ws, we   int
	mlo, mhi uint64
}

// wordWindow resolves the open window over a universe of n words.
func wordWindow(n int, lo, hi uint32, hasLo, hasHi bool) window {
	first, last := uint64(0), uint64(n)<<6
	if hasLo {
		first = uint64(lo) + 1
	}
	if hasHi {
		last = min(last, uint64(hi))
	}
	if first >= last {
		return window{ws: 1}
	}
	last--
	return window{int(first >> 6), int(last >> 6), ^uint64(0) << (first & 63), ^uint64(0) >> (63 - last&63)}
}

// CountBitsBounded returns the popcount of the dense full-universe
// bitset restricted to the open window.
func CountBitsBounded(bitset []uint64, lo, hi uint32, hasLo, hasHi bool) int {
	win := wordWindow(len(bitset), lo, hi, hasLo, hasHi)
	switch {
	case win.ws > win.we:
		return 0
	case win.ws == win.we:
		return bits.OnesCount64(bitset[win.ws] & win.mlo & win.mhi)
	}
	return bits.OnesCount64(bitset[win.ws]&win.mlo) + CountWords(bitset, win.ws+1, win.we) +
		bits.OnesCount64(bitset[win.we]&win.mhi)
}

// IntersectBitsCountBounded returns |x ∩ y| restricted to the open
// window, where both are dense full-universe bitsets.
func IntersectBitsCountBounded(x, y []uint64, lo, hi uint32, hasLo, hasHi bool) int {
	win := wordWindow(min(len(x), len(y)), lo, hi, hasLo, hasHi)
	switch {
	case win.ws > win.we:
		return 0
	case win.ws == win.we:
		return bits.OnesCount64(x[win.ws] & y[win.ws] & win.mlo & win.mhi)
	}
	n := bits.OnesCount64(x[win.ws]&y[win.ws]&win.mlo) + bits.OnesCount64(x[win.we]&y[win.we]&win.mhi)
	xs, ys := x[win.ws+1:win.we], y[win.ws+1:win.we]
	for i := range xs {
		n += bits.OnesCount64(xs[i] & ys[i])
	}
	return n
}
