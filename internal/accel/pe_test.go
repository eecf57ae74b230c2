package accel

import (
	"testing"

	"fingers/internal/graph/gen"
	"fingers/internal/mine"
	"fingers/internal/pattern"
	"fingers/internal/plan"
)

// TestFrameWalkFindsEveryEmbedding walks the shared frame stack the way
// both PE models do — every trunk from each root, then task groups of
// at most max candidates — and requires the walk to find exactly the
// software miner's count for every group size, with no group larger
// than asked for and nothing left on the stack.
func TestFrameWalkFindsEveryEmbedding(t *testing.T) {
	g := gen.PowerLawCluster(200, 5, 0.5, 17)
	var plans []*plan.Plan
	var want uint64
	for _, name := range []string{"tt", "4cl"} {
		p, err := pattern.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pl := plan.MustCompile(p, plan.Options{})
		plans = append(plans, pl)
		want += mine.Count(g, pl)
	}
	for _, max := range []int{1, 3, 16} {
		st := NewPEState(0, g, plans, NewRootScheduler(g.NumVertices()), nil)
		for {
			e, parent, group := st.Next(max)
			if group == nil {
				v, ok := st.NextRoot()
				if !ok {
					break
				}
				for i, eng := range st.Engines {
					node, _ := eng.Start(v)
					st.Finish(i, node)
				}
				continue
			}
			if len(group) > max {
				t.Fatalf("max %d: group of %d", max, len(group))
			}
			for _, v := range group {
				node, _ := st.Engines[e].Extend(parent, v)
				st.Finish(e, node)
			}
		}
		if st.Found != want {
			t.Errorf("max %d: walk found %d embeddings, want %d", max, st.Found, want)
		}
		if len(st.stack) != 0 {
			t.Errorf("max %d: %d frames left after the walk", max, len(st.stack))
		}
	}
}
