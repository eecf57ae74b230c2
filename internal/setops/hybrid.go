package setops

// SISA-style hybrid set storage (PAPERS.md, SISA). The merge/gallop/bits
// kernels dispatch per *call*; this file makes the *storage* adaptive
// per set: a set is kept either as the package's native sorted []uint32
// or as a roaring-like compressed bitmap — 64-bit word containers keyed
// by the value's high bits, with only the nonzero containers stored —
// chosen by a density heuristic (ChooseFormat).
//
// Mining needs only S ∩ N(u), S − N(u) and the postponed N(u) − S
// (Equation 1), and the left operand is always an array — a decoded
// candidate set, or the CSR list N(u) when the anti-subtraction runs as
// N(u) − N(a₁) − N(a₂) … over the postponed ancestors — so the kernels
// here are the ones a stored bitmap row takes part in:
//
//   - array × bitmap probes: intersect (Into and Count) and subtract
//     (Into and InPlace), walking the bitmap's key list monotonically
//     while the array advances;
//   - bounded popcounts: |a ∩ b| or |a| restricted to an open interval
//     (lo, hi) — the symmetry-breaking window of the software miner's
//     leaf fast path — over bitmaps and dense full-universe rows,
//     without decoding, via partial-word masks at the boundary
//     containers.
//
// Aliasing contract: identical to the rest of the package. *Into
// variants append decoded sorted values to a caller-owned dst that must
// not alias any input.

import "math/bits"

// Format identifies the physical representation of one hybrid set.
type Format uint8

const (
	// FormatArray stores the set as a strictly increasing []uint32.
	FormatArray Format = iota
	// FormatBitmap stores the set as a compressed bitmap of nonzero
	// 64-bit word containers.
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

// bitmapWordBytes is the in-memory cost of one stored container: a
// 4-byte key plus an 8-byte word.
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

// Bitmap is a compressed bitmap over uint32 values: strictly increasing
// container keys (value >> 6) with a parallel slice of nonzero 64-bit
// words. Absent containers are all-zero. The zero value is the empty
// set.
type Bitmap struct {
	keys  []uint32
	words []uint64
	card  int
}

// NewBitmapFromSorted builds a bitmap from a strictly increasing slice.
func NewBitmapFromSorted(s []uint32) *Bitmap {
	b := &Bitmap{}
	b.SetSorted(s)
	return b
}

// SetSorted replaces b's contents with the strictly increasing slice s,
// reusing b's container storage when capacity allows.
func (b *Bitmap) SetSorted(s []uint32) {
	b.keys = b.keys[:0]
	b.words = b.words[:0]
	b.card = len(s)
	for i := 0; i < len(s); {
		key := s[i] >> 6
		var w uint64
		for i < len(s) && s[i]>>6 == key {
			w |= 1 << (s[i] & 63)
			i++
		}
		b.keys = append(b.keys, key)
		b.words = append(b.words, w)
	}
}

// Card returns the cardinality.
func (b *Bitmap) Card() int {
	if b == nil {
		return 0
	}
	return b.card
}

// Containers returns the number of stored (nonzero) containers.
func (b *Bitmap) Containers() int {
	if b == nil {
		return 0
	}
	return len(b.keys)
}

// Bytes returns the in-memory footprint of the container storage.
func (b *Bitmap) Bytes() int64 {
	if b == nil {
		return 0
	}
	return int64(len(b.keys)) * bitmapWordBytes
}

// Contains reports membership of v, binary-searching the key list.
func (b *Bitmap) Contains(v uint32) bool {
	if b == nil {
		return false
	}
	key := v >> 6
	i := LowerBound(b.keys, key)
	return i < len(b.keys) && b.keys[i] == key && b.words[i]&(1<<(v&63)) != 0
}

// AppendTo appends the set's elements to dst in increasing order and
// returns the extended slice.
func (b *Bitmap) AppendTo(dst []uint32) []uint32 {
	if b == nil {
		return dst
	}
	for i, key := range b.keys {
		base := key << 6
		w := b.words[i]
		for w != 0 {
			dst = append(dst, base|uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// ---------------------------------------------------------------------
// array × bitmap probe kernels
//
// Both the array and the bitmap's key list are sorted, so a probe walks
// the key list monotonically, galloping when the array jumps containers.

// probeAdvance returns the first index i ≥ j with keys[i] >= key.
func probeAdvance(keys []uint32, j int, key uint32) int {
	return gallopSearch(keys, j, key)
}

// IntersectArrayBitmapInto appends a ∩ b to dst: one container probe
// per element of a, O(|a| · log containers) worst case but O(|a|) on
// clustered inputs. The result is sorted.
func IntersectArrayBitmapInto(dst, a []uint32, b *Bitmap) []uint32 {
	if b == nil || len(a) == 0 || len(b.keys) == 0 {
		return dst
	}
	j := 0
	for _, v := range a {
		key := v >> 6
		if b.keys[j] != key {
			j = probeAdvance(b.keys, j, key)
			if j == len(b.keys) {
				break
			}
			if b.keys[j] != key {
				continue
			}
		}
		if b.words[j]&(1<<(v&63)) != 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

// IntersectArrayBitmapCount returns |a ∩ b| without materializing.
func IntersectArrayBitmapCount(a []uint32, b *Bitmap) int {
	if b == nil || len(a) == 0 || len(b.keys) == 0 {
		return 0
	}
	j, n := 0, 0
	for _, v := range a {
		key := v >> 6
		if b.keys[j] != key {
			j = probeAdvance(b.keys, j, key)
			if j == len(b.keys) {
				break
			}
			if b.keys[j] != key {
				continue
			}
		}
		if b.words[j]&(1<<(v&63)) != 0 {
			n++
		}
	}
	return n
}

// SubtractArrayBitmapInto appends a − b to dst.
func SubtractArrayBitmapInto(dst, a []uint32, b *Bitmap) []uint32 {
	if b == nil || len(b.keys) == 0 {
		return append(dst, a...)
	}
	j := 0
	for _, v := range a {
		key := v >> 6
		if j < len(b.keys) && b.keys[j] != key {
			j = probeAdvance(b.keys, j, key)
		}
		if j < len(b.keys) && b.keys[j] == key && b.words[j]&(1<<(v&63)) != 0 {
			continue
		}
		dst = append(dst, v)
	}
	return dst
}

// SubtractArrayBitmapInPlace compacts a to a − b in place and returns
// the shortened slice, following the package's *InPlace contract.
func SubtractArrayBitmapInPlace(a []uint32, b *Bitmap) []uint32 {
	if b == nil || len(b.keys) == 0 {
		return a
	}
	w, j := 0, 0
	for _, v := range a {
		key := v >> 6
		if j < len(b.keys) && b.keys[j] != key {
			j = probeAdvance(b.keys, j, key)
		}
		if j < len(b.keys) && b.keys[j] == key && b.words[j]&(1<<(v&63)) != 0 {
			continue
		}
		a[w] = v
		w++
	}
	return a[:w]
}

// ---------------------------------------------------------------------
// bounded (windowed) popcount kernels
//
// The miner's leaf fast path counts candidates inside an open interval:
// v > lo when hasLo, v < hi when hasHi (the symmetry-breaking window of
// plan restrictions). These count directly on the container words with
// partial masks at the interval's boundary containers.

// window is the open window (lo, hi) resolved to words: the inclusive
// word range [ws, we] and the masks selecting the in-window bits of its
// first and last word. An empty window has ws > we. Every bounded
// kernel below reads only words inside [ws, we].
type window struct {
	ws, we   int
	mlo, mhi uint64
}

// keyWords is the number of 64-bit words a uint32 universe spans: the
// universe of a compressed bitmap, whose length is not known up front.
const keyWords = 1 << 26

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

// mask returns the in-window bits of word key, 0 outside the window.
func (w window) mask(key int) uint64 {
	if key < w.ws || key > w.we {
		return 0
	}
	m := ^uint64(0)
	if key == w.ws {
		m &= w.mlo
	}
	if key == w.we {
		m &= w.mhi
	}
	return m
}

// CountBounded returns the number of elements of b inside the open
// window: v > lo when hasLo and v < hi when hasHi.
func (b *Bitmap) CountBounded(lo, hi uint32, hasLo, hasHi bool) int {
	if b == nil {
		return 0
	}
	if !hasLo && !hasHi {
		return b.card
	}
	win := wordWindow(keyWords, lo, hi, hasLo, hasHi)
	n := 0
	for i := LowerBound(b.keys, uint32(win.ws)); i < len(b.keys) && int(b.keys[i]) <= win.we; i++ {
		n += bits.OnesCount64(b.words[i] & win.mask(int(b.keys[i])))
	}
	return n
}

// IntersectBitmapsCount returns |a ∩ b| by popcounting paired words:
// the unbounded case of IntersectBitmapsCountBounded.
func IntersectBitmapsCount(a, b *Bitmap) int {
	if a == nil || b == nil {
		return 0
	}
	i, j, n := 0, 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] < b.keys[j]:
			i++
		case a.keys[i] > b.keys[j]:
			j++
		default:
			n += bits.OnesCount64(a.words[i] & b.words[j])
			i++
			j++
		}
	}
	return n
}

// IntersectBitmapsCountBounded returns |a ∩ b| restricted to the open
// window, popcounting masked word pairs.
func IntersectBitmapsCountBounded(a, b *Bitmap, lo, hi uint32, hasLo, hasHi bool) int {
	if a == nil || b == nil {
		return 0
	}
	if !hasLo && !hasHi {
		return IntersectBitmapsCount(a, b)
	}
	win := wordWindow(keyWords, lo, hi, hasLo, hasHi)
	i, j := LowerBound(a.keys, uint32(win.ws)), LowerBound(b.keys, uint32(win.ws))
	n := 0
	for i < len(a.keys) && j < len(b.keys) {
		ka, kb := a.keys[i], b.keys[j]
		switch {
		case ka < kb:
			i++
		case ka > kb:
			j++
		default:
			if int(ka) > win.we {
				return n
			}
			n += bits.OnesCount64(a.words[i] & b.words[j] & win.mask(int(ka)))
			i++
			j++
		}
	}
	return n
}

// IntersectBitmapBitsCountBounded returns |b ∩ bits| restricted to the
// open window, where bits is a dense full-universe bitset (a hub row).
func IntersectBitmapBitsCountBounded(b *Bitmap, bitset []uint64, lo, hi uint32, hasLo, hasHi bool) int {
	if b == nil {
		return 0
	}
	win := wordWindow(len(bitset), lo, hi, hasLo, hasHi)
	n := 0
	for i := LowerBound(b.keys, uint32(win.ws)); i < len(b.keys) && int(b.keys[i]) <= win.we; i++ {
		key := b.keys[i]
		n += bits.OnesCount64(b.words[i] & bitset[key] & win.mask(int(key)))
	}
	return n
}

// CountBitsBounded returns the popcount of the dense full-universe
// bitset restricted to the open window. Only the window's edge words
// are masked.
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
// window, where both are dense full-universe bitsets. Only the window's
// edge words are masked.
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
