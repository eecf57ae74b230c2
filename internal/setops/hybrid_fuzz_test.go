package setops

import "testing"

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

// FuzzHybridSetOps differentially checks the kernels a stored row takes
// part in — array×bitmap and array×dense-row intersect and subtract
// (see checkHybridPair), the bounded popcount kernels, and, when both
// sets fit a universe below 1<<16, the word-parallel kernels over
// full-universe bitsets (see checkWordKernels) — against the merge
// reference. The two scale bytes steer density: 0 packs values into
// runs (bitmap territory), 15 spreads them across the whole uint32
// universe; their XOR also sets how far the universe runs past the
// largest element, so it ends at every offset within a word.
func FuzzHybridSetOps(f *testing.F) {
	f.Add([]byte{}, []byte{}, byte(0), byte(0))                                 // empty × empty
	f.Add([]byte{5}, []byte{5}, byte(0), byte(0))                               // singleton overlap
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, []byte{0, 0, 0, 0}, byte(0), byte(0)) // dense runs
	f.Add([]byte{1, 1, 1, 1}, []byte{255, 255, 255}, byte(0), byte(15))         // clustered × sparse
	f.Add([]byte{255, 255, 255, 255}, []byte{1}, byte(15), byte(15))            // full-universe spread
	f.Add([]byte{63, 1, 63, 1}, []byte{64, 64}, byte(0), byte(0))               // container boundaries
	f.Add([]byte{62, 0, 0, 63}, []byte{63, 0, 64}, byte(0), byte(1))            // word edges 63/64/65, n%64 != 0
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, scaleA, scaleB byte) {
		if len(rawA) > 512 || len(rawB) > 512 {
			return
		}
		a := decodeFuzzSet(rawA, scaleA)
		b := decodeFuzzSet(rawB, scaleB)
		checkHybridPair(t, a, b)

		// Bounded kernels against the brute-force window filter, using
		// elements of the inputs as window edges so boundaries are hit.
		lo, hi := uint32(0), uint32(1<<32-1)
		if len(a) > 0 {
			lo = a[len(a)/2]
		}
		if len(b) > 0 {
			hi = b[len(b)/2]
		}
		ba, bb := NewBitmapFromSorted(a), NewBitmapFromSorted(b)
		for _, w := range []struct{ hasLo, hasHi bool }{
			{false, false}, {true, false}, {false, true}, {true, true},
		} {
			wantA := len(bruteBounded(a, lo, hi, w.hasLo, w.hasHi))
			wantAB := len(bruteBounded(Intersect(a, b), lo, hi, w.hasLo, w.hasHi))
			if got := ba.CountBounded(lo, hi, w.hasLo, w.hasHi); got != wantA {
				t.Fatalf("CountBounded(%v, lo=%d hi=%d %+v) = %d, want %d", a, lo, hi, w, got, wantA)
			}
			if got := IntersectBitmapsCountBounded(ba, bb, lo, hi, w.hasLo, w.hasHi); got != wantAB {
				t.Fatalf("IntersectBitmapsCountBounded(%v, %v, lo=%d hi=%d %+v) = %d, want %d",
					a, b, lo, hi, w, got, wantAB)
			}
		}

		top := max(last(a), last(b))
		if top >= 1<<16 {
			return
		}
		n := int(top) + 1 + int(scaleA^scaleB)%130
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
