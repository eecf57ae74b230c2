// Package plan compiles patterns into the execution plans that guide
// pattern-aware graph mining (paper §2.1): a vertex ordering, the
// incremental set-operation schedule of Equation (1) — including postponed
// anti-subtractions — and symmetry-breaking restrictions derived from the
// pattern's automorphism group. It also compiles several patterns into
// a multi-pattern plan (paper §2.1 "Multi-pattern mining"), which runs
// one trunk per plan from each root.
//
// The plan format is the generic one the paper's hardware consumes, so the
// software reference miner and both accelerator models execute identical
// schedules — the property the paper relies on for fair comparison (§5).
package plan

import (
	"errors"
	"fmt"
	"strings"

	"fingers/internal/pattern"
	"fingers/internal/setops"
)

// ErrInvalid marks a structurally malformed plan: every Validate failure
// wraps it, so callers can test errors.Is(err, plan.ErrInvalid).
var ErrInvalid = errors.New("invalid plan")

// OpKind classifies one scheduled candidate-set update.
type OpKind uint8

const (
	// OpInit sets S_j := N(u_i) with no computation: the target's first
	// connected ancestor is the current level and nothing was postponed.
	OpInit OpKind = iota
	// OpIntersect sets S_j := S_j ∩ N(u_i).
	OpIntersect
	// OpSubtract sets S_j := S_j − N(u_i) (vertex-induced mining only).
	OpSubtract
	// OpAntiSubtract sets S_j := N(u_i) − pending, executed at the
	// target's first connected ancestor for every postponed disconnected
	// ancestor (paper §2.1: the union of earlier neighbor lists is never
	// materialized; multiple anti-subtractions run instead).
	OpAntiSubtract
)

// String returns a compact mnemonic.
func (k OpKind) String() string {
	switch k {
	case OpInit:
		return "init"
	case OpIntersect:
		return "∩"
	case OpSubtract:
		return "−"
	case OpAntiSubtract:
		return "anti−"
	default:
		return "?"
	}
}

// SetOp converts the plan-level op into the setops primitive executed by
// the compute units. OpInit performs no set operation.
func (k OpKind) SetOp() setops.Op {
	switch k {
	case OpIntersect:
		return setops.OpIntersect
	case OpSubtract:
		return setops.OpSubtract
	case OpAntiSubtract:
		return setops.OpAntiSubtract
	default:
		panic("plan: op kind has no set operation")
	}
}

// Action is one scheduled update of candidate set S_Target, emitted right
// after the vertex of its level is selected.
type Action struct {
	// Target is the level whose candidate set this action updates.
	Target int
	// Op is the update kind.
	Op OpKind
	// Pending lists the earlier disconnected ancestor levels whose
	// neighbor lists must be anti-subtracted right after an OpInit; it is
	// non-empty only when Op == OpInit.
	Pending []int
}

// Restriction constrains the vertex selected at its level against an
// earlier level's vertex, pruning automorphic duplicates (paper §2.1).
type Restriction struct {
	// Earlier is the earlier level to compare against.
	Earlier int
	// Greater reports the comparison direction: true means the current
	// level's vertex ID must exceed the earlier one's, false means it must
	// be smaller.
	Greater bool
}

// Level holds the per-level schedule.
type Level struct {
	// Restrictions filter the candidates selected at this level.
	Restrictions []Restriction
	// Actions update future candidate sets once this level's vertex is
	// chosen. Empty at the last level.
	Actions []Action
	// ConnectedAncestors lists the earlier levels adjacent to this one in
	// the pattern (diagnostics and planning heuristics).
	ConnectedAncestors []int
}

// Plan is a compiled execution plan. Levels are identified with pattern
// vertices: the pattern is relabeled so that level i maps pattern vertex i.
type Plan struct {
	// Pattern is the relabeled pattern (level i == pattern vertex i).
	Pattern pattern.Pattern
	// Order maps level → original pattern vertex, recording the ordering
	// decision for reporting.
	Order []int
	// Levels holds the per-level schedules, len == Pattern.Size().
	Levels []Level
	// EdgeInduced reports whether subtraction ops were suppressed to mine
	// edge-induced subgraphs.
	EdgeInduced bool
	// AutSize is the order of the pattern's automorphism group; the
	// number of restricted embeddings times AutSize equals the number of
	// unrestricted (labeled) embeddings.
	AutSize int
}

// K returns the pattern size (number of levels).
func (p *Plan) K() int { return len(p.Levels) }

// Validate checks the structural invariants the miners and accelerator
// models rely on, so a hand-built or deserialized plan fails fast with a
// typed error (wrapping ErrInvalid) instead of panicking mid-simulation:
// at least two levels matching the pattern size, Order a permutation,
// action targets strictly ahead of their level, pending anti-subtract
// ancestors and restriction references strictly behind, and every
// non-root level initialized before use.
func (p *Plan) Validate() error {
	if p == nil {
		return fmt.Errorf("plan: nil plan: %w", ErrInvalid)
	}
	k := len(p.Levels)
	if k < 2 {
		return fmt.Errorf("plan: %d levels, need at least 2: %w", k, ErrInvalid)
	}
	if p.Pattern.Size() != k {
		return fmt.Errorf("plan: pattern size %d != %d levels: %w", p.Pattern.Size(), k, ErrInvalid)
	}
	if len(p.Order) != k {
		return fmt.Errorf("plan: order length %d != %d levels: %w", len(p.Order), k, ErrInvalid)
	}
	seen := make([]bool, k)
	for _, v := range p.Order {
		if v < 0 || v >= k || seen[v] {
			return fmt.Errorf("plan: order %v is not a permutation of [0,%d): %w", p.Order, k, ErrInvalid)
		}
		seen[v] = true
	}
	if p.AutSize < 1 {
		return fmt.Errorf("plan: automorphism group size %d < 1: %w", p.AutSize, ErrInvalid)
	}
	started := make([]bool, k)
	started[0] = true
	for i, lvl := range p.Levels {
		for _, r := range lvl.Restrictions {
			if r.Earlier < 0 || r.Earlier >= i {
				return fmt.Errorf("plan: level %d restriction references level %d, want [0,%d): %w",
					i, r.Earlier, i, ErrInvalid)
			}
		}
		for _, a := range lvl.Actions {
			if a.Target <= i || a.Target >= k {
				return fmt.Errorf("plan: level %d action targets level %d, want (%d,%d): %w",
					i, a.Target, i, k, ErrInvalid)
			}
			if a.Op > OpAntiSubtract {
				return fmt.Errorf("plan: level %d action has unknown op %d: %w", i, a.Op, ErrInvalid)
			}
			if len(a.Pending) > 0 && a.Op != OpInit {
				return fmt.Errorf("plan: level %d %v action carries pending ancestors: %w", i, a.Op, ErrInvalid)
			}
			for _, anc := range a.Pending {
				if anc < 0 || anc >= i {
					return fmt.Errorf("plan: level %d pending ancestor %d out of range [0,%d): %w",
						i, anc, i, ErrInvalid)
				}
			}
			switch a.Op {
			case OpInit:
				started[a.Target] = true
			default:
				if !started[a.Target] {
					return fmt.Errorf("plan: level %d %v action on uninitialized set S%d: %w",
						i, a.Op, a.Target, ErrInvalid)
				}
			}
		}
	}
	for j := 1; j < k; j++ {
		if !started[j] {
			return fmt.Errorf("plan: candidate set S%d is never initialized: %w", j, ErrInvalid)
		}
	}
	return nil
}

// Options configures compilation.
type Options struct {
	// EdgeInduced mines edge-induced subgraphs: subtraction operations
	// are omitted (paper §2.1 "Set operations and representation").
	EdgeInduced bool
	// NoSymmetryBreaking skips restriction generation, counting every
	// automorphic image separately. Used by tests and ablations.
	NoSymmetryBreaking bool
	// Order forces a specific vertex order (level → pattern vertex)
	// instead of the connectivity heuristic. Must be a permutation with
	// every non-initial vertex adjacent to an earlier one.
	Order []int
}

// Compile builds the execution plan for a connected pattern.
func Compile(p pattern.Pattern, opts Options) (*Plan, error) {
	k := p.Size()
	if k < 2 {
		return nil, fmt.Errorf("plan: pattern must have at least 2 vertices, got %d", k)
	}
	if !p.IsConnected() {
		return nil, fmt.Errorf("plan: pattern is not connected: %v", p)
	}
	order := opts.Order
	if order == nil {
		order = chooseOrder(p)
	} else if err := checkOrder(p, order); err != nil {
		return nil, err
	}
	q := p.Relabel(order)

	pl := &Plan{
		Pattern:     q,
		Order:       append([]int(nil), order...),
		Levels:      make([]Level, k),
		EdgeInduced: opts.EdgeInduced,
		AutSize:     len(q.Automorphisms()),
	}

	// Schedule the incremental materialization of Equation (1). For each
	// target level j we track whether S_j has been initialized and which
	// disconnected ancestors are postponed.
	started := make([]bool, k)
	pending := make([][]int, k)
	for i := 0; i < k-1; i++ {
		lvl := &pl.Levels[i]
		for j := i + 1; j < k; j++ {
			connected := q.HasEdge(i, j)
			switch {
			case connected && !started[j]:
				act := Action{Target: j, Op: OpInit}
				if len(pending[j]) > 0 {
					act.Pending = append([]int(nil), pending[j]...)
					pending[j] = nil
				}
				lvl.Actions = append(lvl.Actions, act)
				started[j] = true
			case connected:
				lvl.Actions = append(lvl.Actions, Action{Target: j, Op: OpIntersect})
			case opts.EdgeInduced:
				// Edge-induced mining enforces no edge absence.
			case started[j]:
				lvl.Actions = append(lvl.Actions, Action{Target: j, Op: OpSubtract})
			default:
				pending[j] = append(pending[j], i)
			}
		}
	}
	for j := 1; j < k; j++ {
		if !started[j] {
			return nil, fmt.Errorf("plan: level %d has no connected ancestor under order %v", j, order)
		}
	}
	for j := 0; j < k; j++ {
		for i := 0; i < j; i++ {
			if q.HasEdge(i, j) {
				pl.Levels[j].ConnectedAncestors = append(pl.Levels[j].ConnectedAncestors, i)
			}
		}
	}

	if !opts.NoSymmetryBreaking {
		for _, r := range symmetryRestrictions(q) {
			lvl := &pl.Levels[r.level]
			lvl.Restrictions = append(lvl.Restrictions, r.Restriction)
		}
	}
	return pl, nil
}

// MustCompile is Compile panicking on error. It exists for static
// pattern tables and tests whose patterns are known-good at authoring
// time; any code compiling user- or file-supplied patterns must call
// Compile and handle the error instead.
//
// Deprecated: prefer Compile at every boundary that ingests untrusted
// patterns; MustCompile remains for compile-time-constant tables only.
func MustCompile(p pattern.Pattern, opts Options) *Plan {
	pl, err := Compile(p, opts)
	if err != nil {
		panic(err)
	}
	return pl
}

// chooseOrder implements the connectivity-greedy ordering heuristic used
// by pattern-aware compilers (AutoMine-style): start at a maximum-degree
// vertex, then repeatedly append the vertex with the most edges into the
// ordered prefix, breaking ties by total degree then by index.
func chooseOrder(p pattern.Pattern) []int {
	k := p.Size()
	order := make([]int, 0, k)
	used := make([]bool, k)
	best := 0
	for v := 1; v < k; v++ {
		if p.Degree(v) > p.Degree(best) {
			best = v
		}
	}
	order = append(order, best)
	used[best] = true
	for len(order) < k {
		bestV, bestConn := -1, -1
		for v := 0; v < k; v++ {
			if used[v] {
				continue
			}
			conn := 0
			for _, u := range order {
				if p.HasEdge(u, v) {
					conn++
				}
			}
			if conn > bestConn || (conn == bestConn && p.Degree(v) > p.Degree(bestV)) {
				bestV, bestConn = v, conn
			}
		}
		order = append(order, bestV)
		used[bestV] = true
	}
	return order
}

func checkOrder(p pattern.Pattern, order []int) error {
	k := p.Size()
	if len(order) != k {
		return fmt.Errorf("plan: order length %d != pattern size %d", len(order), k)
	}
	seen := make([]bool, k)
	for _, v := range order {
		if v < 0 || v >= k || seen[v] {
			return fmt.Errorf("plan: order %v is not a permutation of [0,%d)", order, k)
		}
		seen[v] = true
	}
	for i := 1; i < k; i++ {
		ok := false
		for j := 0; j < i; j++ {
			if p.HasEdge(order[i], order[j]) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("plan: order %v leaves level %d with no connected ancestor", order, i)
		}
	}
	return nil
}

type levelRestriction struct {
	level int
	Restriction
}

// symmetryRestrictions derives symmetry-breaking restrictions from the
// automorphism group with the orbit–stabilizer construction (GraphZero-
// style): take the first level moved by the group, force its vertex ID
// below every other member of its orbit, then recurse on the stabilizer.
// Exactly one member of each automorphism class of embeddings survives.
func symmetryRestrictions(q pattern.Pattern) []levelRestriction {
	k := q.Size()
	auts := q.Automorphisms()
	var out []levelRestriction
	for {
		if len(auts) <= 1 {
			return out
		}
		// First level moved by any remaining automorphism.
		a := -1
		orbit := map[int]bool{}
		for lvl := 0; lvl < k && a < 0; lvl++ {
			for _, perm := range auts {
				if perm[lvl] != lvl {
					a = lvl
					break
				}
			}
		}
		for _, perm := range auts {
			if perm[a] != a {
				orbit[perm[a]] = true
			}
		}
		for b := 0; b < k; b++ {
			if !orbit[b] {
				continue
			}
			// Force u_a < u_b: at the later level, compare against the
			// earlier one.
			if a < b {
				out = append(out, levelRestriction{level: b, Restriction: Restriction{Earlier: a, Greater: true}})
			} else {
				out = append(out, levelRestriction{level: a, Restriction: Restriction{Earlier: b, Greater: false}})
			}
		}
		// Stabilize a.
		var next [][]int
		for _, perm := range auts {
			if perm[a] == a {
				next = append(next, perm)
			}
		}
		auts = next
	}
}

// String renders the plan in the paper's notation, e.g. for the tailed
// triangle: "S1 = N(u0); S2 = N(u0)∩N(u1); S3 = N(u0)−N(u1)−N(u2)".
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan k=%d order=%v aut=%d", p.K(), p.Order, p.AutSize)
	if p.EdgeInduced {
		sb.WriteString(" edge-induced")
	}
	sb.WriteString("\n")
	for i, lvl := range p.Levels {
		fmt.Fprintf(&sb, "  level %d:", i)
		for _, r := range lvl.Restrictions {
			cmp := "<"
			if r.Greater {
				cmp = ">"
			}
			fmt.Fprintf(&sb, " [u%d %s u%d]", i, cmp, r.Earlier)
		}
		for _, a := range lvl.Actions {
			fmt.Fprintf(&sb, " S%d:%v", a.Target, a.Op)
			if len(a.Pending) > 0 {
				fmt.Fprintf(&sb, "%v", a.Pending)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
