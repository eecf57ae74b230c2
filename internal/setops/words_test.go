package setops

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// wordsOf returns the full-universe bitset of s over n values.
func wordsOf(s []uint32, n int) []uint64 {
	w := make([]uint64, (n+63)/64)
	Mark(w, s)
	return w
}

// inRange filters s to the half-open value range [from, end).
func inRange(s []uint32, from, end int) []uint32 {
	var out []uint32
	for _, v := range s {
		if int(v) >= from && int(v) < end {
			out = append(out, v)
		}
	}
	return out
}

// checkWordKernels runs every word kernel on the sets a and b over a
// universe of n values (every element must be below n) and compares it
// with the merge reference: AndWords/AndNotWords/CountWords/
// DecodeWordsInto over the word range [wlo, whi), ClearBits, NextBit
// iteration over the values [lo, hi), and the bounded popcounts of
// dense bitsets and compressed bitmaps over the open window (lo, hi)
// under each choice of bounds.
func checkWordKernels(t *testing.T, a, b []uint32, n, wlo, whi int, lo, hi uint32) {
	t.Helper()
	x, y := wordsOf(a, n), wordsOf(b, n)
	words := len(x)
	from, end := wlo<<6, whi<<6
	name := fmt.Sprintf("n=%d words [%d,%d) a=%v b=%v", n, wlo, whi, a, b)

	const sentinel = 0xdeadbeefcafef00d
	for _, k := range []struct {
		op   string
		fn   func(dst, x, y []uint64, lo, hi int) int
		want []uint32
	}{
		{"AndWords", AndWords, Intersect(a, b)},
		{"AndNotWords", AndNotWords, Subtract(a, b)},
	} {
		dst := make([]uint64, words)
		for i := range dst {
			dst[i] = sentinel
		}
		want := inRange(k.want, from, end)
		card := k.fn(dst, x, y, wlo, whi)
		if card != len(want) {
			t.Fatalf("%s %s: popcount %d, want %d", k.op, name, card, len(want))
		}
		if got := DecodeWordsInto(nil, dst, wlo, whi); !equalSets(got, want) {
			t.Fatalf("%s %s: result %v, want %v", k.op, name, got, want)
		}
		for i := range dst {
			if (i < wlo || i >= whi) && dst[i] != sentinel {
				t.Fatalf("%s %s: wrote word %d outside the range", k.op, name, i)
			}
		}
		// dst may alias an operand.
		xc := clone64(x)
		if got := k.fn(xc, xc, y, wlo, whi); got != len(want) {
			t.Fatalf("%s %s in place: popcount %d, want %d", k.op, name, got, len(want))
		}
	}

	wantA := inRange(a, from, end)
	if got := CountWords(x, wlo, whi); got != len(wantA) {
		t.Fatalf("CountWords %s = %d, want %d", name, got, len(wantA))
	}
	prefix := []uint32{9999}
	if got := DecodeWordsInto(Clone(prefix), x, wlo, whi); got[0] != prefix[0] || !equalSets(got[1:], wantA) {
		t.Fatalf("DecodeWordsInto %s = %v, want prefix+%v", name, got, wantA)
	}

	cleared := clone64(x)
	ClearBits(cleared, b)
	if got, want := DecodeWordsInto(nil, cleared, 0, words), Subtract(a, b); !equalSets(got, want) {
		t.Fatalf("ClearBits %s = %v, want %v", name, got, want)
	}

	iterEnd := min(int(hi), words<<6)
	var got []uint32
	for v := NextBit(x, int(lo), iterEnd); v < iterEnd; v = NextBit(x, v+1, iterEnd) {
		got = append(got, uint32(v))
	}
	if want := inRange(a, int(lo), iterEnd); !equalSets(got, want) {
		t.Fatalf("NextBit over [%d,%d) %s = %v, want %v", lo, iterEnd, name, got, want)
	}

	ba, bb := NewBitmapFromSorted(a), NewBitmapFromSorted(b)
	for _, w := range []struct{ hasLo, hasHi bool }{
		{false, false}, {true, false}, {false, true}, {true, true},
	} {
		wantA := len(bruteBounded(a, lo, hi, w.hasLo, w.hasHi))
		wantAB := len(bruteBounded(Intersect(a, b), lo, hi, w.hasLo, w.hasHi))
		if got := CountBitsBounded(x, lo, hi, w.hasLo, w.hasHi); got != wantA {
			t.Fatalf("CountBitsBounded(lo=%d hi=%d %+v) %s = %d, want %d", lo, hi, w, name, got, wantA)
		}
		if got := IntersectBitsCountBounded(x, y, lo, hi, w.hasLo, w.hasHi); got != wantAB {
			t.Fatalf("IntersectBitsCountBounded(lo=%d hi=%d %+v) %s = %d, want %d", lo, hi, w, name, got, wantAB)
		}
		if got := ba.CountBounded(lo, hi, w.hasLo, w.hasHi); got != wantA {
			t.Fatalf("CountBounded(lo=%d hi=%d %+v) %s = %d, want %d", lo, hi, w, name, got, wantA)
		}
		if got := IntersectBitmapsCountBounded(ba, bb, lo, hi, w.hasLo, w.hasHi); got != wantAB {
			t.Fatalf("IntersectBitmapsCountBounded(lo=%d hi=%d %+v) %s = %d, want %d", lo, hi, w, name, got, wantAB)
		}
		if got := IntersectBitmapBitsCountBounded(ba, y, lo, hi, w.hasLo, w.hasHi); got != wantAB {
			t.Fatalf("IntersectBitmapBitsCountBounded(lo=%d hi=%d %+v) %s = %d, want %d", lo, hi, w, name, got, wantAB)
		}
	}
}

// clone64 returns a copy of a bitset.
func clone64(x []uint64) []uint64 { return append([]uint64(nil), x...) }

// TestWordKernelsWordEdges checks the word kernels at the edges where
// they can go wrong: universes that end mid-word, word ranges that are
// empty, one word or the whole bitset, and window and iteration bounds
// on both sides of each word edge (63/64/65, 127/128/129, n−1) and at
// the top of the uint32 range.
func TestWordKernelsWordEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{1, 63, 64, 65, 100, 128, 129, 200} {
		words := (n + 63) / 64
		for _, density := range []float64{0, 0.05, 0.5, 1} {
			randSet := func() []uint32 {
				var s []uint32
				for v := 0; v < n; v++ {
					if rng.Float64() < density {
						s = append(s, uint32(v))
					}
				}
				return s
			}
			a, b := randSet(), randSet()
			bounds := []uint32{0, 1, 62, 63, 64, 65, 127, 128, 129, uint32(n - 1), uint32(n), math.MaxUint32}
			for wlo := 0; wlo <= words; wlo++ {
				for whi := wlo; whi <= words; whi++ {
					for _, lo := range bounds {
						for _, hi := range bounds {
							checkWordKernels(t, a, b, n, wlo, whi, lo, hi)
						}
					}
				}
			}
		}
	}
}

func TestKeepWords(t *testing.T) {
	for _, c := range []struct {
		card, words int
		want        bool
	}{
		{0, 0, false},
		{0, 1, false},
		{2, 1, false},
		{3, 1, true},
		{64, 1, true},
		{10, 188, false}, // a sparse hub's small intersection decodes
		{563, 188, false},
		{564, 188, true},
		{150, 16, true}, // a 38%-dense graph's level-2 set stays a bitset
	} {
		if got := KeepWords(c.card, c.words); got != c.want {
			t.Errorf("KeepWords(%d, %d) = %v, want %v", c.card, c.words, got, c.want)
		}
	}
}
