// Package pattern represents the small query graphs ("patterns") whose
// embeddings graph mining enumerates, together with the structural
// analyses the execution-plan compiler needs: automorphism enumeration
// (for symmetry breaking), connectivity, and canonical forms (for motif
// classification).
//
// Patterns are tiny (the paper evaluates sizes 3–5), so brute-force
// permutation algorithms are both adequate and simple to verify.
package pattern

import (
	"fmt"
	"sort"
	"strings"
)

// MaxSize bounds the pattern size; brute-force automorphism and canonical
// form enumeration is factorial so sizes stay small, as in all
// pattern-aware mining systems.
const MaxSize = 8

// Pattern is an undirected connected query graph over vertices 0..n−1.
// The zero value is an empty pattern; construct with New.
type Pattern struct {
	n   int
	adj [MaxSize]uint16 // adjacency bitmasks
}

// New builds a pattern with n vertices and the given edges. It panics on
// out-of-range vertices, self-loops, or n > MaxSize: patterns are
// compile-time program inputs, so malformed ones are programmer errors.
// TryNew reports the same conditions as an error, for boundaries that
// ingest patterns from outside the program (files, flags, network).
func New(n int, edges [][2]int) Pattern {
	p, err := TryNew(n, edges)
	if err != nil {
		panic(err.Error())
	}
	return p
}

// TryNew is New with validation instead of panics: a size outside
// [1, MaxSize], an out-of-range edge endpoint, or a self-loop is
// reported as an error.
func TryNew(n int, edges [][2]int) (Pattern, error) {
	var p Pattern
	if n < 1 || n > MaxSize {
		return p, fmt.Errorf("pattern: size %d out of range [1,%d]", n, MaxSize)
	}
	p.n = n
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || v < 0 || u >= n || v >= n {
			return Pattern{}, fmt.Errorf("pattern: edge (%d,%d) out of range for size %d", u, v, n)
		}
		if u == v {
			return Pattern{}, fmt.Errorf("pattern: self-loop at %d", u)
		}
		p.adj[u] |= 1 << uint(v)
		p.adj[v] |= 1 << uint(u)
	}
	return p, nil
}

// Size returns the number of pattern vertices.
func (p Pattern) Size() int { return p.n }

// HasEdge reports whether vertices i and j are adjacent.
func (p Pattern) HasEdge(i, j int) bool { return p.adj[i]&(1<<uint(j)) != 0 }

// Degree returns the degree of pattern vertex i.
func (p Pattern) Degree(i int) int {
	d := 0
	for m := p.adj[i]; m != 0; m &= m - 1 {
		d++
	}
	return d
}

// Edges returns all edges with i < j in sorted order.
func (p Pattern) Edges() [][2]int {
	var out [][2]int
	for i := 0; i < p.n; i++ {
		for j := i + 1; j < p.n; j++ {
			if p.HasEdge(i, j) {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// IsConnected reports whether the pattern is connected; mining plans only
// make sense for connected patterns.
func (p Pattern) IsConnected() bool {
	if p.n == 0 {
		return false
	}
	var visited uint16 = 1
	stack := []int{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for j := 0; j < p.n; j++ {
			bit := uint16(1) << uint(j)
			if p.HasEdge(v, j) && visited&bit == 0 {
				visited |= bit
				stack = append(stack, j)
			}
		}
	}
	return visited == (1<<uint(p.n))-1
}

// Relabel returns the pattern with vertices permuted by perm: vertex i of
// the result is vertex perm[i] of p.
func (p Pattern) Relabel(perm []int) Pattern {
	var q Pattern
	q.n = p.n
	for i := 0; i < p.n; i++ {
		for j := 0; j < p.n; j++ {
			if p.HasEdge(perm[i], perm[j]) {
				q.adj[i] |= 1 << uint(j)
			}
		}
	}
	return q
}

// Equal reports whether p and q have identical size and adjacency (as
// labeled graphs, not up to isomorphism).
func (p Pattern) Equal(q Pattern) bool {
	if p.n != q.n {
		return false
	}
	for i := 0; i < p.n; i++ {
		if p.adj[i] != q.adj[i] {
			return false
		}
	}
	return true
}

// permutations invokes f on every permutation of [0,n); f returning false
// stops the enumeration.
func permutations(n int, f func(perm []int) bool) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == n {
			return f(perm)
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			if !rec(k + 1) {
				return false
			}
			perm[k], perm[i] = perm[i], perm[k]
		}
		return true
	}
	rec(0)
}

// Automorphisms returns every permutation σ with σ(p) = p, including the
// identity. Symmetry breaking derives its restrictions from this group
// (paper §2.1).
func (p Pattern) Automorphisms() [][]int {
	var out [][]int
	permutations(p.n, func(perm []int) bool {
		if p.Relabel(perm).Equal(p) {
			cp := make([]int, p.n)
			copy(cp, perm)
			out = append(out, cp)
		}
		return true
	})
	return out
}

// CanonicalCode returns a label-invariant encoding of the pattern: the
// lexicographically smallest adjacency bitstring over all relabelings.
// Two patterns have equal codes iff they are isomorphic; motif counting
// uses it to classify embeddings.
func (p Pattern) CanonicalCode() uint64 {
	best := ^uint64(0)
	permutations(p.n, func(perm []int) bool {
		q := p.Relabel(perm)
		var code uint64
		bit := 0
		for i := 0; i < p.n; i++ {
			for j := i + 1; j < p.n; j++ {
				if q.HasEdge(i, j) {
					code |= 1 << uint(bit)
				}
				bit++
			}
		}
		if code < best {
			best = code
		}
		return true
	})
	return best | uint64(p.n)<<56
}

// String renders the pattern as "K(n): 0-1 0-2 …".
func (p Pattern) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pattern(%d):", p.n)
	for _, e := range p.Edges() {
		fmt.Fprintf(&sb, " %d-%d", e[0], e[1])
	}
	return sb.String()
}

// ConnectedSubpatternsOfSize enumerates all non-isomorphic connected
// patterns with k vertices, used by k-motif counting to build the pattern
// set (paper §2.1: "counts the number of occurrences for each size-k
// pattern").
func ConnectedSubpatternsOfSize(k int) []Pattern {
	if k < 1 || k > 5 {
		panic("pattern: motif enumeration supported for sizes 1-5")
	}
	pairs := k * (k - 1) / 2
	var out []Pattern
	seen := map[uint64]bool{}
	for mask := 0; mask < 1<<uint(pairs); mask++ {
		var edges [][2]int
		bit := 0
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if mask&(1<<uint(bit)) != 0 {
					edges = append(edges, [2]int{i, j})
				}
				bit++
			}
		}
		p := New(k, edges)
		if !p.IsConnected() {
			continue
		}
		code := p.CanonicalCode()
		if seen[code] {
			continue
		}
		seen[code] = true
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CanonicalCode() < out[j].CanonicalCode() })
	return out
}
