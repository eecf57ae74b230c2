package plan

import (
	"errors"
	"strings"
	"testing"

	"fingers/internal/pattern"
)

func mustPattern(t *testing.T, n int, edges [][2]int) pattern.Pattern {
	t.Helper()
	p, err := pattern.TryNew(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func compile(t *testing.T, p pattern.Pattern, opts Options) *Plan {
	t.Helper()
	pl, err := Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestTailedTrianglePlan checks the compiled plan against Figure 2 of the
// paper: S1 = N(u0); S2 = N(u0) ∩ N(u1); S3 = N(u0) − N(u1) − N(u2).
func TestTailedTrianglePlan(t *testing.T) {
	pl := compile(t, pattern.TailedTriangle(), Options{})
	if pl.K() != 4 {
		t.Fatalf("K = %d", pl.K())
	}
	if pl.Order[0] != 0 {
		t.Errorf("order should start at the hub, got %v", pl.Order)
	}
	l0 := pl.Levels[0].Actions
	if len(l0) != 3 {
		t.Fatalf("level 0 actions = %v", l0)
	}
	for _, a := range l0 {
		if a.Op != OpInit || len(a.Pending) != 0 {
			t.Errorf("level 0 action not a plain init: %+v", a)
		}
	}
	// Level 1: S2 gets an intersect, S3 a subtract.
	ops := map[int]OpKind{}
	for _, a := range pl.Levels[1].Actions {
		ops[a.Target] = a.Op
	}
	if ops[2] != OpIntersect || ops[3] != OpSubtract {
		t.Errorf("level 1 ops = %v", ops)
	}
	// Level 2: S3 gets another subtract.
	if len(pl.Levels[2].Actions) != 1 || pl.Levels[2].Actions[0].Op != OpSubtract {
		t.Errorf("level 2 actions = %v", pl.Levels[2].Actions)
	}
	// One symmetric pair (u1, u2) → exactly one restriction.
	total := 0
	for _, lvl := range pl.Levels {
		total += len(lvl.Restrictions)
	}
	if total != 1 || pl.AutSize != 2 {
		t.Errorf("restrictions = %d, aut = %d", total, pl.AutSize)
	}
}

func TestCliquePlanSharesEverything(t *testing.T) {
	pl := compile(t, pattern.Clique(4), Options{})
	// Every action is an init or an intersect; no subtractions in cliques.
	for i, lvl := range pl.Levels {
		for _, a := range lvl.Actions {
			if a.Op == OpSubtract || a.Op == OpAntiSubtract {
				t.Errorf("level %d has %v in a clique plan", i, a.Op)
			}
		}
	}
	// Full symmetry: restrictions at every level beyond the first, and
	// counts divided by 4! = 24.
	if pl.AutSize != 24 {
		t.Errorf("AutSize = %d, want 24", pl.AutSize)
	}
	total := 0
	for _, lvl := range pl.Levels {
		total += len(lvl.Restrictions)
	}
	if total != 6 { // orbits of sizes 4,3,2 → 3+2+1 restrictions
		t.Errorf("restrictions = %d, want 6", total)
	}
}

func TestCyclePlanHasPostponedInit(t *testing.T) {
	// In the 4-cycle ordered 0,1,2,3 (0-1, 1-2, 2-3, 3-0), vertex 3 is
	// disconnected from one earlier vertex; depending on the chosen order
	// the plan must either subtract or postpone. The compiled plan must
	// contain at least one subtract or pending init (vertex-induced needs
	// the absent-edge check).
	pl := compile(t, pattern.Cycle(4), Options{})
	found := false
	for _, lvl := range pl.Levels {
		for _, a := range lvl.Actions {
			if a.Op == OpSubtract || len(a.Pending) > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("4-cycle plan lacks absent-edge enforcement:\n%v", pl)
	}
}

func TestEdgeInducedDropsSubtractions(t *testing.T) {
	pl := compile(t, pattern.TailedTriangle(), Options{EdgeInduced: true})
	for i, lvl := range pl.Levels {
		for _, a := range lvl.Actions {
			if a.Op == OpSubtract || a.Op == OpAntiSubtract || len(a.Pending) > 0 {
				t.Errorf("edge-induced plan has removal at level %d: %+v", i, a)
			}
		}
	}
	if !pl.EdgeInduced {
		t.Error("EdgeInduced flag not set")
	}
}

func TestForcedOrder(t *testing.T) {
	p := pattern.TailedTriangle()
	pl := compile(t, p, Options{Order: []int{0, 2, 1, 3}})
	if pl.Order[1] != 2 {
		t.Errorf("forced order not honored: %v", pl.Order)
	}
	// Invalid orders must be rejected.
	bad := [][]int{
		{0, 1, 2},    // wrong length
		{0, 0, 1, 2}, // not a permutation
		{3, 1, 0, 2}, // level 1 (vertex 1) not adjacent to vertex 3
		{0, 1, 2, 5}, // out of range
	}
	for _, o := range bad {
		if _, err := Compile(p, Options{Order: o}); err == nil {
			t.Errorf("order %v accepted", o)
		}
	}
}

func TestCompileRejectsBadPatterns(t *testing.T) {
	if _, err := Compile(mustPattern(t, 1, nil), Options{}); err == nil {
		t.Error("single-vertex pattern accepted")
	}
	disconnected := mustPattern(t, 4, [][2]int{{0, 1}, {2, 3}})
	if _, err := Compile(disconnected, Options{}); err == nil {
		t.Error("disconnected pattern accepted")
	}
}

func TestNoSymmetryBreaking(t *testing.T) {
	pl := compile(t, pattern.Triangle(), Options{NoSymmetryBreaking: true})
	for _, lvl := range pl.Levels {
		if len(lvl.Restrictions) != 0 {
			t.Error("restrictions present despite NoSymmetryBreaking")
		}
	}
}

func TestRestrictionsAreWellFormed(t *testing.T) {
	for _, name := range pattern.Names() {
		p, err := pattern.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pl := compile(t, p, Options{})
		for lvl, l := range pl.Levels {
			for _, r := range l.Restrictions {
				if r.Earlier < 0 || r.Earlier >= lvl {
					t.Errorf("%s: restriction at level %d references level %d", name, lvl, r.Earlier)
				}
			}
		}
	}
}

func TestPlanString(t *testing.T) {
	s := compile(t, pattern.Triangle(), Options{}).String()
	for _, want := range []string{"k=3", "level 0", "S1:init", "∩"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile did not panic on bad pattern")
		}
	}()
	MustCompile(mustPattern(t, 4, [][2]int{{0, 1}, {2, 3}}), Options{})
}

func TestMotifMulti(t *testing.T) {
	mp, err := Motif(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.Plans) != 2 {
		t.Fatalf("3-motif plans = %d, want 2 (wedge + triangle)", len(mp.Plans))
	}
	for _, pl := range mp.Plans {
		if pl.K() != 3 {
			t.Errorf("3-motif plan has %d vertices, want 3", pl.K())
		}
	}
}

func TestCompileMultiErrors(t *testing.T) {
	if _, err := CompileMulti(nil, Options{}); err == nil {
		t.Error("empty pattern list accepted")
	}
}

func TestSingletonMultiIsCompile(t *testing.T) {
	mp, err := CompileMulti([]pattern.Pattern{pattern.Triangle()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := MustCompile(pattern.Triangle(), Options{})
	if len(mp.Plans) != 1 || mp.Plans[0].String() != want.String() {
		t.Errorf("singleton multi-plan = %v, want [%v]", mp.Plans, want)
	}
}

func TestOpKindStringAndSetOp(t *testing.T) {
	if OpInit.String() != "init" || OpIntersect.String() != "∩" {
		t.Error("OpKind strings wrong")
	}
	if OpIntersect.SetOp().String() != "intersect" {
		t.Error("SetOp mapping wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("OpInit.SetOp() did not panic")
		}
	}()
	OpInit.SetOp()
}

func TestValidateRejectsCorruptedPlans(t *testing.T) {
	if err := (*Plan)(nil).Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("nil plan: err = %v, want ErrInvalid", err)
	}
	fresh := func() *Plan { return compile(t, pattern.TailedTriangle(), Options{}) }
	if err := fresh().Validate(); err != nil {
		t.Fatalf("compiled plan fails Validate: %v", err)
	}
	corrupt := []struct {
		name string
		mut  func(*Plan)
	}{
		{"order not a permutation", func(p *Plan) { p.Order[0] = p.Order[1] }},
		{"order length mismatch", func(p *Plan) { p.Order = p.Order[:2] }},
		{"zero automorphisms", func(p *Plan) { p.AutSize = 0 }},
		{"restriction on later level", func(p *Plan) {
			for i := range p.Levels {
				if len(p.Levels[i].Restrictions) > 0 {
					p.Levels[i].Restrictions[0].Earlier = len(p.Levels)
					return
				}
			}
			t.Skip("plan has no restrictions")
		}},
	}
	for _, c := range corrupt {
		pl := fresh()
		c.mut(pl)
		if err := pl.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", c.name, err)
		}
	}
}
