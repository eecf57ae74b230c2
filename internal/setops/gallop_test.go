package setops

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGallopSearch(t *testing.T) {
	s := []uint32{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	cases := []struct {
		lo   int
		v    uint32
		want int
	}{
		{0, 1, 0},
		{0, 2, 0},
		{0, 3, 1},
		{0, 20, 9},
		{0, 21, 10},
		{5, 12, 5},
		{5, 100, 10},
	}
	for _, c := range cases {
		if got := gallopSearch(s, c.lo, c.v); got != c.want {
			t.Errorf("gallopSearch(lo=%d, v=%d) = %d, want %d", c.lo, c.v, got, c.want)
		}
	}
}

func TestGallopingMatchesMerge(t *testing.T) {
	f := func(av, bv []uint32) bool {
		a, b := mkset(av), mkset(bv)
		if !eq(IntersectGallopingInto(nil, a, b), Intersect(a, b)) {
			return false
		}
		return eq(SubtractGallopingInto(nil, a, b), Subtract(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGallopingSkewedInputs(t *testing.T) {
	// Force the galloping path: a tiny set against a huge one.
	rng := rand.New(rand.NewSource(5))
	big := make([]uint32, 10000)
	for i := range big {
		big[i] = uint32(i * 3)
	}
	small := randomSet(rng, 20, 30000)
	if !eq(IntersectGallopingInto(nil, small, big), Intersect(small, big)) {
		t.Error("galloping intersect diverges on skewed inputs")
	}
	if !eq(SubtractGallopingInto(nil, small, big), Subtract(small, big)) {
		t.Error("galloping subtract diverges on skewed inputs")
	}
	// Symmetric argument order must not matter for intersection.
	if !eq(IntersectGallopingInto(nil, big, small), Intersect(small, big)) {
		t.Error("galloping intersect not symmetric")
	}
}

func BenchmarkIntersectGallopingSkewed(b *testing.B) {
	big := make([]uint32, 100000)
	for i := range big {
		big[i] = uint32(i * 2)
	}
	small := []uint32{5, 1001, 20002, 40005, 80000, 160001, 199998}
	dst := make([]uint32, 0, len(small))
	b.Run("gallop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = IntersectGallopingInto(dst[:0], small, big)
		}
	})
	b.Run("merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = IntersectInto(dst[:0], small, big)
		}
	})
}
