package plan_test

import (
	"fmt"

	"fingers/internal/pattern"
	"fingers/internal/plan"
)

// ExampleCompile reproduces Figure 2 of the paper: the execution plan of
// the tailed triangle.
func ExampleCompile() {
	pl, err := plan.Compile(pattern.TailedTriangle(), plan.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Print(pl)
	// Output:
	// plan k=4 order=[0 1 2 3] aut=2
	//   level 0: S1:init S2:init S3:init
	//   level 1: S2:∩ S3:−
	//   level 2: [u2 > u1] S3:−
	//   level 3:
}

func ExampleMotif() {
	mp, err := plan.Motif(3, plan.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d patterns\n", len(mp.Plans))
	// Output: 2 patterns
}
