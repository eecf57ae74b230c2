// Command profile measures the fine-grained parallelism a workload
// exposes at each search-tree level — the branch-, set- and segment-level
// analysis of the paper's §3 — without running a timing simulation.
//
// Usage:
//
//	profile -graph Mi -pattern tt
//	profile -graph soc.txt -pattern 4cl -max-roots 2000
package main

import (
	"flag"
	"fmt"
	"os"

	"fingers/internal/datasets"
	"fingers/internal/pattern"
	"fingers/internal/plan"
	"fingers/internal/profile"
)

func main() {
	graphArg := flag.String("graph", "Mi", "dataset mnemonic or edge-list path")
	patternArg := flag.String("pattern", "tt", "named pattern")
	maxRoots := flag.Int("max-roots", 0, "cap on root vertices walked (0 = all)")
	longSeg := flag.Int("sl", 0, "long segment length (0 = paper default 16)")
	shortSeg := flag.Int("ss", 0, "short segment length (0 = paper default 4)")
	flag.Parse()

	g, err := datasets.Resolve(*graphArg)
	if err != nil {
		fatal(err)
	}
	p, err := pattern.ByName(*patternArg)
	if err != nil {
		fatal(err)
	}
	pl, err := plan.Compile(p, plan.Options{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph %s, pattern %s\n", *graphArg, *patternArg)
	fmt.Printf("plan:\n%v\n", pl)
	prof := profile.Run(g, pl, profile.Config{
		MaxRoots:    *maxRoots,
		LongSegLen:  *longSeg,
		ShortSegLen: *shortSeg,
	})
	fmt.Print(prof)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "profile:", err)
	os.Exit(1)
}
