package setops

import (
	"fmt"
	"slices"
	"testing"
)

// adversarialSets is the shared grid of densities the dense-row
// kernels must survive: empty, singleton, full-universe runs, clustered
// bursts, word-boundary values, and sparse spreads.
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

// rankPair maps a and b onto the ranks of their values in a ∪ b. The map
// is order-preserving and one-to-one, so every set relation between the
// two survives, and a pair spread over the whole uint32 range fits a
// dense row of |a ∪ b| bits.
func rankPair(a, b []uint32) ([]uint32, []uint32) {
	u := append(slices.Clone(a), b...)
	slices.Sort(u)
	u = slices.Compact(u)
	rank := func(s []uint32) []uint32 {
		out := make([]uint32, len(s))
		for i, v := range s {
			out[i] = uint32(LowerBound(u, v))
		}
		return out
	}
	return rank(a), rank(b)
}

// checkHybridPair runs the kernels a dense row takes part in on one
// (a, b) pair, with b as a full-universe dense row, and compares each
// against the merge reference: intersect Into and Count, subtract Into
// and InPlace. A pair reaching 1<<20 or beyond is first mapped onto its
// ranks (rankPair). Into results are appended after a sentinel prefix,
// so a kernel that drops or rewrites dst shows.
func checkHybridPair(t *testing.T, a, b []uint32) {
	t.Helper()
	if max(last(a), last(b)) >= 1<<20 {
		a, b = rankPair(a, b)
	}
	wantI := Intersect(a, b)
	wantS := Subtract(a, b)
	prefix := []uint32{9999}
	into := func(name string, got, want []uint32) {
		t.Helper()
		if len(got) == 0 || got[0] != prefix[0] || !slices.Equal(got[1:], want) {
			t.Errorf("%s(%v, %v) = %v, want prefix+%v", name, a, b, got, want)
		}
	}
	row := make([]uint64, max(last(a), last(b))/64+1)
	Mark(row, b)
	into("IntersectBitsInto", IntersectBitsInto(slices.Clone(prefix), a, row), wantI)
	if got := IntersectCountBits(a, row); got != len(wantI) {
		t.Errorf("IntersectCountBits(%v, %v) = %d, want %d", a, b, got, len(wantI))
	}
	into("SubtractBitsInto", SubtractBitsInto(slices.Clone(prefix), a, row), wantS)
	if got := SubtractBitsInPlace(slices.Clone(a), row); !slices.Equal(got, wantS) {
		t.Errorf("SubtractBitsInPlace(%v, %v) = %v, want %v", a, b, got, wantS)
	}
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

// FuzzHybridSetOps differentially checks the kernels a dense row takes
// part in — array×dense-row intersect and subtract (see
// checkHybridPair) and, over full-universe bitsets of both sets, the
// word-parallel kernels and the two bounded popcounts (see
// checkWordKernels) — against the merge reference. The two scale bytes
// steer density: 0 packs values into runs, 15 spreads them across the
// whole uint32 universe, where the word kernels see the pair mapped onto
// its ranks (rankPair); their XOR also sets how far the universe runs
// past the largest element, so it ends at every offset within a word.
func FuzzHybridSetOps(f *testing.F) {
	f.Add([]byte{}, []byte{}, byte(0), byte(0))                                 // empty × empty
	f.Add([]byte{5}, []byte{5}, byte(0), byte(0))                               // singleton overlap
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, []byte{0, 0, 0, 0}, byte(0), byte(0)) // dense runs
	f.Add([]byte{1, 1, 1, 1}, []byte{255, 255, 255}, byte(0), byte(15))         // clustered × sparse
	f.Add([]byte{255, 255, 255, 255}, []byte{1}, byte(15), byte(15))            // full-universe spread
	f.Add([]byte{63, 1, 63, 1}, []byte{64, 64}, byte(0), byte(0))               // word boundaries
	f.Add([]byte{62, 0, 0, 63}, []byte{63, 0, 64}, byte(0), byte(1))            // word edges 63/64/65, n%64 != 0
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, scaleA, scaleB byte) {
		if len(rawA) > 512 || len(rawB) > 512 {
			return
		}
		a := decodeFuzzSet(rawA, scaleA)
		b := decodeFuzzSet(rawB, scaleB)
		checkHybridPair(t, a, b)

		if max(last(a), last(b)) >= 1<<16 {
			a, b = rankPair(a, b)
		}
		// Window edges are elements of the inputs, so boundaries are hit.
		lo, hi := uint32(0), uint32(1<<32-1)
		if len(a) > 0 {
			lo = a[len(a)/2]
		}
		if len(b) > 0 {
			hi = b[len(b)/2]
		}
		n := int(max(last(a), last(b))) + 1 + int(scaleA^scaleB)%130
		words := (n + 63) / 64
		wlo, whi := int(lo>>6), words
		if len(b) > 0 {
			whi = int(hi>>6) + 1
		}
		if wlo > whi {
			wlo, whi = whi, wlo
		}
		checkWordKernels(t, a, b, n, min(wlo, words), min(whi, words), lo, hi)
	})
}
