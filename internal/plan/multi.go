package plan

import (
	"fmt"

	"fingers/internal/pattern"
)

// MultiPlan holds the plans of several patterns mined together (paper
// §2.1 "Multi-pattern mining"). The simulated PEs run one trunk per plan
// from each root they draw; the software miner counts the plans one
// after another. No intermediate result is shared between plans.
type MultiPlan struct {
	// Plans holds one compiled plan per pattern.
	Plans []*Plan
}

// CompileMulti compiles each pattern into one multi-pattern plan.
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
	return mp, nil
}

// Motif returns the multi-plan for k-motif counting: every connected
// pattern on k vertices (paper §2.1; 3mc mines the triangle and the wedge).
func Motif(k int, opts Options) (*MultiPlan, error) {
	return CompileMulti(pattern.ConnectedSubpatternsOfSize(k), opts)
}
