package setops

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// DecodeWordsInto over the word range [wlo, whi), ClearBits, and the
// bounded popcounts over the open window (lo, hi) under each choice of
// bounds.
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
		if got := DecodeWordsInto(nil, dst, wlo, whi); !slices.Equal(got, want) {
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
	if got := DecodeWordsInto(slices.Clone(prefix), x, wlo, whi); got[0] != prefix[0] || !slices.Equal(got[1:], wantA) {
		t.Fatalf("DecodeWordsInto %s = %v, want prefix+%v", name, got, wantA)
	}

	cleared := clone64(x)
	ClearBits(cleared, b)
	if got, want := DecodeWordsInto(nil, cleared, 0, words), Subtract(a, b); !slices.Equal(got, want) {
		t.Fatalf("ClearBits %s = %v, want %v", name, got, want)
	}

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

func TestChooseFormat(t *testing.T) {
	cases := []struct {
		card int
		span uint32
		want Format
	}{
		{0, 0, FormatArray},
		{1, 1, FormatArray},        // 4 bytes < 12
		{3, 1, FormatBitmap},       // 12 >= 12·1
		{64, 64, FormatBitmap},     // full container
		{10, 1 << 20, FormatArray}, // sparse spread
		{1000, 1100, FormatBitmap}, // dense run
		{100, 6400, FormatArray},   // one per container: 400 < 12·101
		{400, 6400, FormatBitmap},  // four per container
	}
	for _, c := range cases {
		if got := ChooseFormat(c.card, c.span); got != c.want {
			t.Errorf("ChooseFormat(%d, %d) = %v, want %v", c.card, c.span, got, c.want)
		}
	}
}

func TestBoundedCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const universe = 2048
	randSet := func(n int) []uint32 {
		seen := map[uint32]bool{}
		var out []uint32
		for len(out) < n {
			v := uint32(rng.Intn(universe))
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		slices.Sort(out)
		return out
	}
	for trial := 0; trial < 200; trial++ {
		a := randSet(rng.Intn(120))
		b := randSet(rng.Intn(120))
		lo := uint32(rng.Intn(universe))
		hi := uint32(rng.Intn(universe))
		hasLo := rng.Intn(2) == 0
		hasHi := rng.Intn(2) == 0
		wantA := len(bruteBounded(a, lo, hi, hasLo, hasHi))
		wantAB := len(bruteBounded(Intersect(a, b), lo, hi, hasLo, hasHi))
		da, db := wordsOf(a, universe), wordsOf(b, universe)
		if got := CountBitsBounded(da, lo, hi, hasLo, hasHi); got != wantA {
			t.Fatalf("trial %d: CountBitsBounded = %d, want %d", trial, got, wantA)
		}
		if got := IntersectBitsCountBounded(da, db, lo, hi, hasLo, hasHi); got != wantAB {
			t.Fatalf("trial %d: IntersectBitsCountBounded = %d, want %d", trial, got, wantAB)
		}
	}
}

// decodeFuzzSet turns fuzz bytes into a strictly increasing set. Each
// byte is a positive delta; the scale byte stretches deltas so the
// fuzzer reaches sparse spreads (large scale) and packed runs (scale 0)
// with equal ease.
func decodeFuzzSet(data []byte, scale byte) []uint32 {
	out := make([]uint32, 0, len(data))
	cur := uint64(0)
	for _, d := range data {
		cur += uint64(d)<<(scale&15) + 1
		if cur > 1<<32-1 {
			break
		}
		out = append(out, uint32(cur-1))
	}
	return out
}

// bruteBounded filters s to the open window (lo, hi).
func bruteBounded(s []uint32, lo, hi uint32, hasLo, hasHi bool) []uint32 {
	var out []uint32
	for _, v := range s {
		if hasLo && v <= lo {
			continue
		}
		if hasHi && v >= hi {
			continue
		}
		out = append(out, v)
	}
	return out
}
