package setops

import (
	"math/rand"
	"slices"
	"testing"
)

// checkMarkProbe checks the mark-and-probe identities against the merge
// kernels: with s marked, probing n yields s ∩ n and its count, s − n
// follows by removing that intersection, and unmarking leaves the bitset
// all zero.
func checkMarkProbe(t *testing.T, s, n []uint32, universe uint32) {
	t.Helper()
	marks := make([]uint64, (universe+63)/64)
	Mark(marks, s)
	for _, v := range s {
		if !BitsContain(marks, v) {
			t.Fatalf("Mark(%v): %d not marked", s, v)
		}
	}
	inter := IntersectBitsInto(nil, n, marks)
	if want := IntersectInto(nil, s, n); !slices.Equal(inter, want) {
		t.Fatalf("probe %v against marked %v = %v, want %v", n, s, inter, want)
	}
	if got, want := IntersectCountBits(n, marks), IntersectCount(s, n); got != want {
		t.Fatalf("probe count %v against marked %v = %d, want %d", n, s, got, want)
	}
	prefix := []uint32{7}
	got := SubtractSubsetInto(slices.Clone(prefix), s, inter)
	if want := SubtractInto(slices.Clone(prefix), s, n); !slices.Equal(got, want) {
		t.Fatalf("SubtractSubsetInto(%v, %v) = %v, want %v", s, inter, got, want)
	}
	Unmark(marks, s)
	for i, w := range marks {
		if w != 0 {
			t.Fatalf("Unmark(%v) left word %d = %#x", s, i, w)
		}
	}
}

func TestMarkProbeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		universe := uint32(1 + rng.Intn(2000))
		s := randomSet(rng, 300, universe)
		n := randomSet(rng, 300, universe)
		checkMarkProbe(t, s, n, universe)
	}
}

func TestSubtractSubsetEdges(t *testing.T) {
	a := []uint32{1, 3, 5, 7, 9}
	for _, tc := range []struct{ sub, want []uint32 }{
		{nil, a},
		{a, nil},
		{[]uint32{1}, []uint32{3, 5, 7, 9}},
		{[]uint32{9}, []uint32{1, 3, 5, 7}},
		{[]uint32{3, 7}, []uint32{1, 5, 9}},
	} {
		if got := SubtractSubsetInto(nil, a, tc.sub); !slices.Equal(got, tc.want) {
			t.Errorf("SubtractSubsetInto(%v, %v) = %v, want %v", a, tc.sub, got, tc.want)
		}
	}
}

// FuzzMarkProbe differentially checks the mark-and-probe kernels against
// the merge kernels, with the same set encoding as FuzzHybridSetOps.
func FuzzMarkProbe(f *testing.F) {
	f.Add([]byte{}, []byte{}, byte(0), byte(0))
	f.Add([]byte{5}, []byte{5}, byte(0), byte(0))
	f.Add([]byte{63, 1, 63, 1}, []byte{64, 64}, byte(0), byte(0))
	f.Add([]byte{1, 1, 1, 1}, []byte{255, 255, 255}, byte(0), byte(3))
	f.Fuzz(func(t *testing.T, rawS, rawN []byte, scaleS, scaleN byte) {
		if len(rawS) > 512 || len(rawN) > 512 {
			return
		}
		// Cap the scale so the marked universe stays a few megabytes.
		s := decodeFuzzSet(rawS, scaleS%8)
		n := decodeFuzzSet(rawN, scaleN%8)
		universe := uint32(1)
		for _, set := range [][]uint32{s, n} {
			if len(set) > 0 {
				universe = max(universe, set[len(set)-1]+1)
			}
		}
		checkMarkProbe(t, s, n, universe)
	})
}

// BenchmarkMarkProbe is the mark-and-probe layer benchmark: one candidate
// set meets 16 neighbor lists of similar size, as the children of a
// search-tree node do. Merging pays for the candidate set 16 times;
// mark-and-probe pays once to mark it, then walks only the lists.
func BenchmarkMarkProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const universe = 40000
	s := randomSet(rng, 64, universe)
	var partners [][]uint32
	for i := 0; i < 16; i++ {
		partners = append(partners, randomSet(rng, 64, universe))
	}
	dst := make([]uint32, 0, 64)
	b.Run("merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, n := range partners {
				dst = IntersectInto(dst[:0], s, n)
			}
		}
	})
	marks := make([]uint64, (universe+63)/64)
	b.Run("mark-probe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Mark(marks, s)
			for _, n := range partners {
				dst = IntersectBitsInto(dst[:0], n, marks)
			}
			Unmark(marks, s)
		}
	})
}
