// Package setops implements merge-based operations on sorted vertex-ID
// lists, the core computation of pattern-aware graph mining (FINGERS §2.1).
//
// Sets are represented as strictly increasing []uint32 slices, matching the
// paper's "ordered lists of vertex IDs" representation. All operations are
// one-pass merges so results stay sorted without explicit sort steps.
//
// The package also provides the segment-level primitives the FINGERS
// processing element charges its set operations from: fixed-length
// segments, the head-list pairing with its binary-search cost, and the
// load-balanced intersect-unit workloads (paper §3.4, §4.2, §4.3).
//
// # Aliasing contract
//
// Every function that returns a set allocates fresh storage: results
// never alias an input slice, so callers may mutate or append to them
// freely. The explicit exceptions are the *Into variants, which append to
// a caller-owned dst (dst must not alias either input), and the *InPlace
// variants, which compact their first argument's prefix.
package setops

// Op identifies one of the three set operations of Equation (1) in the
// paper: S∩N, S−N, and the postponed anti-subtraction N−S.
type Op uint8

const (
	// OpIntersect computes S ∩ N(u): the new vertex u is connected to
	// the pattern vertex being materialized.
	OpIntersect Op = iota
	// OpSubtract computes S − N(u): the new vertex u is disconnected
	// from the pattern vertex being materialized (vertex-induced mining).
	OpSubtract
	// OpAntiSubtract computes N(u) − S. It arises when the pattern vertex
	// is connected to u but to none of the earlier ancestors, whose
	// neighbor-list union was postponed rather than materialized (§2.1).
	OpAntiSubtract
)

// String returns the conventional short name of the operation.
func (op Op) String() string {
	switch op {
	case OpIntersect:
		return "intersect"
	case OpSubtract:
		return "subtract"
	case OpAntiSubtract:
		return "anti-subtract"
	default:
		return "unknown-op"
	}
}

// Intersect returns a ∩ b as a new sorted slice.
func Intersect(a, b []uint32) []uint32 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	return IntersectInto(make([]uint32, 0, n), a, b)
}

// IntersectInto appends a ∩ b to dst and returns the extended slice.
// dst may be a zero-length slice sharing storage with neither input.
func IntersectInto(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// IntersectCount returns |a ∩ b| without materializing the result.
func IntersectCount(a, b []uint32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Subtract returns a − b as a new sorted slice.
func Subtract(a, b []uint32) []uint32 {
	return SubtractInto(make([]uint32, 0, len(a)), a, b)
}

// SubtractInto appends a − b to dst and returns the extended slice.
func SubtractInto(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) {
		for j < len(b) && b[j] < a[i] {
			j++
		}
		if j < len(b) && b[j] == a[i] {
			i++
			continue
		}
		dst = append(dst, a[i])
		i++
	}
	return dst
}

// Apply evaluates the operation on (s, n) following Equation (1):
// intersection and subtraction treat s as the partial candidate set and n
// as the neighbor list; anti-subtraction computes n − s.
func Apply(op Op, s, n []uint32) []uint32 {
	switch op {
	case OpIntersect:
		return Intersect(s, n)
	case OpSubtract:
		return Subtract(s, n)
	case OpAntiSubtract:
		return Subtract(n, s)
	default:
		panic("setops: unknown op")
	}
}

// Contains reports whether v is in the sorted set s, via binary search.
func Contains(s []uint32, v uint32) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == v
}

// LowerBound returns the index of the first element ≥ v.
func LowerBound(s []uint32, v uint32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// UpperBound returns the index of the first element > v.
func UpperBound(s []uint32, v uint32) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
