package setops

import (
	"math/rand"
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
