package setops

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func benchSets(shortLen, longLen int) (s, n []uint32) {
	rng := rand.New(rand.NewSource(1))
	s = randomSet(rng, shortLen, uint32(longLen*4))
	n = randomSet(rng, longLen, uint32(longLen*4))
	return s, n
}

func BenchmarkIntersect(b *testing.B) {
	s, n := benchSets(96, 1024)
	b.ReportAllocs()
	dst := make([]uint32, 0, len(s))
	for i := 0; i < b.N; i++ {
		dst = IntersectInto(dst[:0], s, n)
	}
	_ = dst
}

func BenchmarkSubtract(b *testing.B) {
	s, n := benchSets(96, 1024)
	b.ReportAllocs()
	dst := make([]uint32, 0, len(s))
	for i := 0; i < b.N; i++ {
		dst = SubtractInto(dst[:0], s, n)
	}
	_ = dst
}

func BenchmarkPair(b *testing.B) {
	s, n := benchSets(96, 1024)
	long := Segment(n, DefaultLongSegLen)
	short := Segment(s, DefaultShortSegLen)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Pair(long, short)
	}
}

// BenchmarkSubtractSubset is the layer benchmark of SubtractSubsetInto's
// dispatch: a set of |a| elements minus a random subset holding a given
// fraction of them. Fractions of 20% and more take the linear kernel,
// 5% the galloping one.
func BenchmarkSubtractSubset(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		for _, pct := range []int{5, 20, 50, 80} {
			rng := rand.New(rand.NewSource(1))
			a := make([]uint32, n)
			for i, v := range rng.Perm(4 * n)[:n] {
				a[i] = uint32(v)
			}
			slices.Sort(a)
			var sub []uint32
			for _, v := range a {
				if rng.Intn(100) < pct {
					sub = append(sub, v)
				}
			}
			dst := make([]uint32, 0, n)
			b.Run(fmt.Sprintf("a=%d/sub=%d%%", n, pct), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					dst = SubtractSubsetInto(dst[:0], a, sub)
				}
			})
		}
	}
}
