package mine

import (
	"slices"
	"testing"

	"fingers/internal/graph/gen"
	"fingers/internal/pattern"
	"fingers/internal/plan"
)

// TestAllSize4PatternsAgainstOracle compiles and mines every connected
// 4-vertex pattern (all six isomorphism classes) on random graphs and
// checks each count against the brute-force oracle — broader than the
// named-pattern tests, this covers pattern shapes with every kind of
// schedule (pure intersects, mixed, postponed subtractions).
func TestAllSize4PatternsAgainstOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
	}{{"er", 31}, {"plc", 32}} {
		var g = gen.ErdosRenyi(15, 45, tc.seed)
		if tc.name == "plc" {
			g = gen.PowerLawCluster(15, 3, 0.7, tc.seed)
		}
		for i, p := range pattern.ConnectedSubpatternsOfSize(4) {
			for _, edgeInduced := range []bool{false, true} {
				pl, err := plan.Compile(p, plan.Options{EdgeInduced: edgeInduced})
				if err != nil {
					t.Fatalf("pattern %d: %v", i, err)
				}
				got := Count(g, pl)
				want := bruteForceUnique(g, p, !edgeInduced)
				if got != want {
					t.Errorf("%s pattern %d (%v) edgeInduced=%v: %d, want %d",
						tc.name, i, p, edgeInduced, got, want)
				}
			}
		}
	}
}

// TestAllSize5PatternsSpotCheck covers the 21 connected 5-vertex classes
// on one small graph (vertex-induced only; size-5 brute force is pricey).
func TestAllSize5PatternsSpotCheck(t *testing.T) {
	g := gen.ErdosRenyi(12, 36, 77)
	for i, p := range pattern.ConnectedSubpatternsOfSize(5) {
		pl, err := plan.Compile(p, plan.Options{})
		if err != nil {
			t.Fatalf("pattern %d: %v", i, err)
		}
		got := Count(g, pl)
		want := bruteForceUnique(g, p, true)
		if got != want {
			t.Errorf("pattern %d (%v): %d, want %d", i, p, got, want)
		}
	}
}

// TestForcedOrdersAllAgree mines the tailed triangle under every valid
// vertex order: the count must be order-independent.
func TestForcedOrdersAllAgree(t *testing.T) {
	g := gen.PowerLawCluster(60, 4, 0.6, 41)
	p := pattern.TailedTriangle()
	want := bruteForceUnique(g, p, true)
	orders := [][]int{
		{0, 1, 2, 3},
		{0, 2, 1, 3},
		{0, 3, 1, 2},
		{1, 0, 2, 3},
		{1, 2, 0, 3},
		{3, 0, 1, 2},
	}
	for _, order := range orders {
		pl, err := plan.Compile(p, plan.Options{Order: order})
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		if got := Count(g, pl); got != want {
			t.Errorf("order %v: count %d, want %d", order, got, want)
		}
	}
}

// TestDeterministicRuns re-executes identical workloads and demands
// byte-identical results — the engine has no hidden nondeterminism.
func TestDeterministicRuns(t *testing.T) {
	g := gen.PowerLawCluster(200, 5, 0.5, 51)
	pl := plan.MustCompile(pattern.Diamond(), plan.Options{})
	a, b := Count(g, pl), Count(g, pl)
	if a != b {
		t.Errorf("counts differ across runs: %d vs %d", a, b)
	}
}

// TestLeafAdjacencyMatchesPattern checks the leaf counters' fixed
// adjacency table against the pattern itself, for every connected
// pattern of 3 to 5 vertices under every valid vertex order, vertex- and
// edge-induced: u_i and u_{k−2} are adjacent when the (relabeled)
// pattern has the edge, not adjacent when it lacks it under
// vertex-induced mining or when i = k−2, and unknown otherwise.
func TestLeafAdjacencyMatchesPattern(t *testing.T) {
	for k := 3; k <= 5; k++ {
		for _, p := range pattern.ConnectedSubpatternsOfSize(k) {
			for _, order := range permutations(k) {
				for _, edgeInduced := range []bool{false, true} {
					pl, err := plan.Compile(p, plan.Options{Order: order, EdgeInduced: edgeInduced})
					if err != nil {
						continue // not a connected order
					}
					got := leafAdjacency(pl)
					for i := 0; i <= k-2; i++ {
						want := adjNo
						switch {
						case i == k-2:
						case pl.Pattern.HasEdge(i, k-2):
							want = adjYes
						case edgeInduced:
							want = adjUnknown
						}
						if got[i] != want {
							t.Fatalf("%v order %v edgeInduced=%v: level %d adjacency %d, want %d", p, order, edgeInduced, i, got[i], want)
						}
					}
				}
			}
		}
	}
}

// TestScheduleMatchesMergeGrouping checks buildSchedule's static steps
// against the groups the merge walk forms at run time, for every
// connected pattern of 3 to 5 vertices under every valid vertex order,
// vertex- and edge-induced. The Engine runs the schedule, so its steps
// alone decide the op structure of every TaskInfo. Along one path of a
// complete graph, step i of each level must equal the walk's group i in
// op, pending list and targets. An update must also read its first
// target's slot, share a mark slot exactly with the updates that read
// the same set, and name as its inter the first earlier intersection of
// that set.
func TestScheduleMatchesMergeGrouping(t *testing.T) {
	g := gen.Complete(5)
	for k := 3; k <= 5; k++ {
		for _, p := range pattern.ConnectedSubpatternsOfSize(k) {
			for _, order := range permutations(k) {
				for _, edgeInduced := range []bool{false, true} {
					pl, err := plan.Compile(p, plan.Options{Order: order, EdgeInduced: edgeInduced})
					if err != nil {
						continue // not a connected order
					}
					r := &refWalk{g: g, pl: pl}
					n := r.root()
					for level, steps := range buildSchedule(pl) {
						groups := r.groups(n)
						if len(steps) != len(groups) {
							t.Fatalf("%v order %v edgeInduced=%v level %d: %d steps, %d groups", p, order, edgeInduced, level, len(steps), len(groups))
						}
						for i, st := range steps {
							w := groups[i]
							if st.op != w.op || !slices.Equal(st.pending, w.pending) || !slices.Equal(st.targets, w.targets) {
								t.Fatalf("%v order %v edgeInduced=%v level %d step %d: %v pending %v targets %v, group %v pending %v targets %v",
									p, order, edgeInduced, level, i, st.op, st.pending, st.targets, w.op, w.pending, w.targets)
							}
							if st.op == plan.OpInit {
								continue
							}
							inter := slices.IndexFunc(groups[:i], func(h *refGroup) bool { return h.op == plan.OpIntersect && h.srcID == w.srcID })
							if st.src != w.targets[0] || st.inter != inter {
								t.Fatalf("%v order %v edgeInduced=%v level %d step %d: src %d inter %d, want %d and %d",
									p, order, edgeInduced, level, i, st.src, st.inter, w.targets[0], inter)
							}
							for j, h := range groups {
								if h.op != plan.OpInit && (steps[j].mark == st.mark) != (h.srcID == w.srcID) {
									t.Fatalf("%v order %v edgeInduced=%v level %d: steps %d and %d share a mark slot %v, want %v",
										p, order, edgeInduced, level, i, j, steps[j].mark == st.mark, h.srcID == w.srcID)
								}
							}
						}
						n, _ = r.extend(n, uint32(level))
					}
				}
			}
		}
	}
}

// permutations returns every ordering of 0..n−1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, rest := range permutations(n - 1) {
		for at := 0; at <= len(rest); at++ {
			out = append(out, slices.Insert(slices.Clone(rest), at, n-1))
		}
	}
	return out
}
