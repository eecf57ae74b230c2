package setops

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// adversarialSets is the shared grid of densities the hybrid kernels
// must survive: empty, singleton, full-universe runs, clustered bursts,
// container-boundary values, and sparse spreads.
func adversarialSets() [][]uint32 {
	full := make([]uint32, 256)
	for i := range full {
		full[i] = uint32(i)
	}
	clustered := []uint32{0, 1, 2, 3, 63, 64, 65, 127, 128, 129, 1000, 1001, 1002, 1003, 1004}
	sparse := []uint32{7, 300, 9000, 70000, 1 << 20, 1 << 25, 1<<31 + 5}
	boundary := []uint32{63, 64, 127, 128, 191, 192}
	run := make([]uint32, 100)
	for i := range run {
		run[i] = uint32(500 + i)
	}
	return [][]uint32{
		nil,
		{},
		{42},
		{0},
		{1<<32 - 1},
		full,
		clustered,
		sparse,
		boundary,
		run,
		{0, 1<<32 - 1},
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

func TestBitmapRoundTrip(t *testing.T) {
	for i, s := range adversarialSets() {
		b := NewBitmapFromSorted(s)
		if b.Card() != len(s) {
			t.Errorf("set %d: Card = %d, want %d", i, b.Card(), len(s))
		}
		got := b.AppendTo(nil)
		if len(got) == 0 && len(s) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, []uint32(s)) {
			t.Errorf("set %d: round trip = %v, want %v", i, got, s)
		}
		for _, v := range s {
			if !b.Contains(v) {
				t.Errorf("set %d: Contains(%d) = false", i, v)
			}
		}
		if len(s) > 0 && b.Contains(s[0]+1) != Contains(s, s[0]+1) {
			t.Errorf("set %d: Contains(%d) disagrees with array", i, s[0]+1)
		}
		if b.Bytes() != int64(12*b.Containers()) {
			t.Errorf("set %d: Bytes = %d, want %d", i, b.Bytes(), 12*b.Containers())
		}
	}
}

// checkHybridPair runs the kernels a stored row takes part in on one
// (a, b) pair, with b as a compressed bitmap and, when every value fits
// below 1<<20, as a full-universe dense row, and compares each against
// the merge reference: intersect Into and Count, subtract Into and
// InPlace. Into results are appended after a sentinel prefix, so a
// kernel that drops or rewrites dst shows.
func checkHybridPair(t *testing.T, a, b []uint32) {
	t.Helper()
	wantI := Intersect(a, b)
	wantS := Subtract(a, b)
	prefix := []uint32{9999}
	into := func(name string, got, want []uint32) {
		t.Helper()
		if len(got) == 0 || got[0] != prefix[0] || !equalSets(got[1:], want) {
			t.Errorf("%s(%v, %v) = %v, want prefix+%v", name, a, b, got, want)
		}
	}
	count := func(name string, got int, want []uint32) {
		t.Helper()
		if got != len(want) {
			t.Errorf("%s(%v, %v) = %d, want %d", name, a, b, got, len(want))
		}
	}
	inPlace := func(name string, got, want []uint32) {
		t.Helper()
		if !equalSets(got, want) {
			t.Errorf("%s(%v, %v) = %v, want %v", name, a, b, got, want)
		}
	}

	bm := NewBitmapFromSorted(b)
	into("IntersectArrayBitmapInto", IntersectArrayBitmapInto(Clone(prefix), a, bm), wantI)
	count("IntersectArrayBitmapCount", IntersectArrayBitmapCount(a, bm), wantI)
	into("SubtractArrayBitmapInto", SubtractArrayBitmapInto(Clone(prefix), a, bm), wantS)
	inPlace("SubtractArrayBitmapInPlace", SubtractArrayBitmapInPlace(Clone(a), bm), wantS)

	top := max(last(a), last(b))
	if top >= 1<<20 {
		return
	}
	row := make([]uint64, top/64+1)
	Mark(row, b)
	into("IntersectBitsInto", IntersectBitsInto(Clone(prefix), a, row), wantI)
	count("IntersectCountBits", IntersectCountBits(a, row), wantI)
	into("SubtractBitsInto", SubtractBitsInto(Clone(prefix), a, row), wantS)
	inPlace("SubtractBitsInPlace", SubtractBitsInPlace(Clone(a), row), wantS)
}

func equalSets(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// last returns the largest element of the sorted set s, or 0 when empty.
func last(s []uint32) uint32 {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

func TestHybridKernelMatrix(t *testing.T) {
	sets := adversarialSets()
	for i, a := range sets {
		for j, b := range sets {
			t.Run(fmt.Sprintf("%dx%d", i, j), func(t *testing.T) {
				checkHybridPair(t, a, b)
			})
		}
	}
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

func TestBoundedCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	universe := uint32(2048)
	denseWords := func(s []uint32) []uint64 {
		w := make([]uint64, (universe+63)/64)
		for _, v := range s {
			w[v>>6] |= 1 << (v & 63)
		}
		return w
	}
	randSet := func(n int) []uint32 {
		seen := map[uint32]bool{}
		var out []uint32
		for len(out) < n {
			v := uint32(rng.Intn(int(universe)))
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		sortU32(out)
		return out
	}
	for trial := 0; trial < 200; trial++ {
		a := randSet(rng.Intn(120))
		b := randSet(rng.Intn(120))
		lo := uint32(rng.Intn(int(universe)))
		hi := uint32(rng.Intn(int(universe)))
		hasLo := rng.Intn(2) == 0
		hasHi := rng.Intn(2) == 0
		wantA := len(bruteBounded(a, lo, hi, hasLo, hasHi))
		wantAB := len(bruteBounded(Intersect(a, b), lo, hi, hasLo, hasHi))
		ba, bb := NewBitmapFromSorted(a), NewBitmapFromSorted(b)
		da, db := denseWords(a), denseWords(b)
		if got := ba.CountBounded(lo, hi, hasLo, hasHi); got != wantA {
			t.Fatalf("trial %d: CountBounded = %d, want %d", trial, got, wantA)
		}
		if got := IntersectBitmapsCountBounded(ba, bb, lo, hi, hasLo, hasHi); got != wantAB {
			t.Fatalf("trial %d: IntersectBitmapsCountBounded = %d, want %d", trial, got, wantAB)
		}
		if got := IntersectBitmapBitsCountBounded(ba, db, lo, hi, hasLo, hasHi); got != wantAB {
			t.Fatalf("trial %d: IntersectBitmapBitsCountBounded = %d, want %d", trial, got, wantAB)
		}
		if got := CountBitsBounded(da, lo, hi, hasLo, hasHi); got != wantA {
			t.Fatalf("trial %d: CountBitsBounded = %d, want %d", trial, got, wantA)
		}
		if got := IntersectBitsCountBounded(da, db, lo, hi, hasLo, hasHi); got != wantAB {
			t.Fatalf("trial %d: IntersectBitsCountBounded = %d, want %d", trial, got, wantAB)
		}
	}
}

func sortU32(s []uint32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
