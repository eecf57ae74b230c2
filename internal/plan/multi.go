package plan

import (
	"fmt"
	"reflect"

	"fingers/internal/pattern"
)

// MultiPlan executes several patterns in one traversal with a shared
// search-tree prefix (paper §2.1 "Multi-pattern mining"): the first
// SharedLevels levels are common, then the trunks of different patterns
// diverge and are explored like extra branches.
type MultiPlan struct {
	// Plans holds one compiled plan per pattern.
	Plans []*Plan
	// SharedLevels is the number of leading levels whose schedules
	// (actions and restrictions) coincide across every plan; the
	// intermediate results of these levels are computed once.
	SharedLevels int
}

// CompileMulti compiles each pattern and computes the shared prefix.
// All patterns must have at least two vertices; sizes may differ.
func CompileMulti(ps []pattern.Pattern, opts Options) (*MultiPlan, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("plan: no patterns to compile")
	}
	mp := &MultiPlan{}
	for _, p := range ps {
		pl, err := Compile(p, opts)
		if err != nil {
			return nil, err
		}
		mp.Plans = append(mp.Plans, pl)
	}
	mp.SharedLevels = sharedPrefix(mp.Plans)
	return mp, nil
}

// Motif returns the multi-plan for k-motif counting: every connected
// pattern on k vertices (paper §2.1; 3mc mines the triangle and the wedge).
func Motif(k int, opts Options) (*MultiPlan, error) {
	return CompileMulti(pattern.ConnectedSubpatternsOfSize(k), opts)
}

func sharedPrefix(plans []*Plan) int {
	if len(plans) == 1 {
		return plans[0].K()
	}
	minK := plans[0].K()
	for _, pl := range plans[1:] {
		if pl.K() < minK {
			minK = pl.K()
		}
	}
	shared := 0
	for lvl := 0; lvl < minK-1; lvl++ {
		ref := plans[0].Levels[lvl]
		same := true
		for _, pl := range plans[1:] {
			l := pl.Levels[lvl]
			if !reflect.DeepEqual(ref.Actions, l.Actions) ||
				!reflect.DeepEqual(ref.Restrictions, l.Restrictions) {
				same = false
				break
			}
		}
		if !same {
			break
		}
		shared = lvl + 1
	}
	return shared
}
