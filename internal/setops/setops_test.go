package setops

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// mkset turns arbitrary values into a valid sorted deduplicated set.
func mkset(vals []uint32) []uint32 {
	seen := make(map[uint32]bool, len(vals))
	out := make([]uint32, 0, len(vals))
	for _, v := range vals {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// naive reference implementations over maps.
func naiveIntersect(a, b []uint32) []uint32 {
	inB := make(map[uint32]bool, len(b))
	for _, v := range b {
		inB[v] = true
	}
	out := []uint32{}
	for _, v := range a {
		if inB[v] {
			out = append(out, v)
		}
	}
	return out
}

func naiveSubtract(a, b []uint32) []uint32 {
	inB := make(map[uint32]bool, len(b))
	for _, v := range b {
		inB[v] = true
	}
	out := []uint32{}
	for _, v := range a {
		if !inB[v] {
			out = append(out, v)
		}
	}
	return out
}

func eq(a, b []uint32) bool {
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

// isSorted reports whether s is strictly increasing, the invariant every
// set in this package maintains.
func isSorted(s []uint32) bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

func TestIsSorted(t *testing.T) {
	cases := []struct {
		s    []uint32
		want bool
	}{
		{nil, true},
		{[]uint32{1}, true},
		{[]uint32{1, 2, 3}, true},
		{[]uint32{1, 1}, false},
		{[]uint32{2, 1}, false},
	}
	for _, c := range cases {
		if got := isSorted(c.s); got != c.want {
			t.Errorf("isSorted(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestIntersectBasic(t *testing.T) {
	a := []uint32{1, 3, 5, 7, 9}
	b := []uint32{3, 4, 5, 6, 7}
	want := []uint32{3, 5, 7}
	if got := Intersect(a, b); !eq(got, want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if got := IntersectCount(a, b); got != 3 {
		t.Errorf("IntersectCount = %d, want 3", got)
	}
}

func TestIntersectEmpty(t *testing.T) {
	if got := Intersect(nil, []uint32{1, 2}); len(got) != 0 {
		t.Errorf("Intersect(nil, ...) = %v, want empty", got)
	}
	if got := Intersect([]uint32{1, 2}, nil); len(got) != 0 {
		t.Errorf("Intersect(..., nil) = %v, want empty", got)
	}
}

func TestSubtractBasic(t *testing.T) {
	a := []uint32{1, 3, 5, 7, 9}
	b := []uint32{3, 4, 5, 6}
	want := []uint32{1, 7, 9}
	if got := Subtract(a, b); !eq(got, want) {
		t.Errorf("Subtract = %v, want %v", got, want)
	}
}

func TestSubtractDisjoint(t *testing.T) {
	a := []uint32{1, 2, 3}
	b := []uint32{10, 20}
	if got := Subtract(a, b); !eq(got, a) {
		t.Errorf("Subtract disjoint = %v, want %v", got, a)
	}
}

func TestApplyAllOps(t *testing.T) {
	s := []uint32{2, 4, 6, 8}
	n := []uint32{4, 5, 6, 7}
	if got := Apply(OpIntersect, s, n); !eq(got, []uint32{4, 6}) {
		t.Errorf("Apply intersect = %v", got)
	}
	if got := Apply(OpSubtract, s, n); !eq(got, []uint32{2, 8}) {
		t.Errorf("Apply subtract = %v", got)
	}
	if got := Apply(OpAntiSubtract, s, n); !eq(got, []uint32{5, 7}) {
		t.Errorf("Apply anti-subtract = %v", got)
	}
}

func TestOpString(t *testing.T) {
	if OpIntersect.String() != "intersect" || OpSubtract.String() != "subtract" ||
		OpAntiSubtract.String() != "anti-subtract" || Op(99).String() != "unknown-op" {
		t.Error("Op.String mismatch")
	}
}

func TestBounds(t *testing.T) {
	s := []uint32{2, 4, 4, 6} // LowerBound handles non-strict input too
	if got := LowerBound(s, 4); got != 1 {
		t.Errorf("LowerBound = %d, want 1", got)
	}
	if got := UpperBound(s, 4); got != 3 {
		t.Errorf("UpperBound = %d, want 3", got)
	}
	if got := LowerBound(s, 7); got != 4 {
		t.Errorf("LowerBound beyond = %d, want 4", got)
	}
	if !Contains(s, 6) || Contains(s, 5) {
		t.Error("Contains mismatch")
	}
}

func TestIntersectMatchesNaive(t *testing.T) {
	f := func(av, bv []uint32) bool {
		a, b := mkset(av), mkset(bv)
		return eq(Intersect(a, b), naiveIntersect(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubtractMatchesNaive(t *testing.T) {
	f := func(av, bv []uint32) bool {
		a, b := mkset(av), mkset(bv)
		return eq(Subtract(a, b), naiveSubtract(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetAlgebraProperties(t *testing.T) {
	f := func(av, bv []uint32) bool {
		a, b := mkset(av), mkset(bv)
		inter := Intersect(a, b)
		sub := Subtract(a, b)
		// a = (a∩b) ∪ (a−b), disjointly.
		if len(inter)+len(sub) != len(a) || len(Intersect(inter, sub)) != 0 {
			return false
		}
		for _, v := range a {
			if !Contains(inter, v) && !Contains(sub, v) {
				return false
			}
		}
		// Commutativity of intersection.
		if !eq(inter, Intersect(b, a)) {
			return false
		}
		// A − B = A − (A ∩ B), the identity the IU hardware exploits.
		return eq(sub, Subtract(a, inter))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResultsStaySorted(t *testing.T) {
	f := func(av, bv []uint32) bool {
		a, b := mkset(av), mkset(bv)
		return isSorted(Intersect(a, b)) && isSorted(Subtract(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randomSet(rng *rand.Rand, maxLen int, maxVal uint32) []uint32 {
	n := rng.Intn(maxLen + 1)
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = rng.Uint32() % maxVal
	}
	return mkset(vals)
}

func TestIntoVariantsAppend(t *testing.T) {
	a := []uint32{1, 2, 3}
	b := []uint32{2, 3, 4}
	prefix := []uint32{100}
	if got := IntersectInto(slices.Clone(prefix), a, b); !eq(got, []uint32{100, 2, 3}) {
		t.Errorf("IntersectInto = %v", got)
	}
	if got := SubtractInto(slices.Clone(prefix), a, b); !eq(got, []uint32{100, 1}) {
		t.Errorf("SubtractInto = %v", got)
	}
}
