package main

import (
	"fmt"
	"io"
	"sort"

	"fingers"
	"fingers/internal/mine"
)

// updateGolden recomputes the golden entries of the named workloads on
// the default-seed inputs, cross-checks every count against the
// reference miner mine.CountOracle, and rewrites the golden file.
func updateGolden(path string, names []string, log io.Writer) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	if g.Workloads == nil {
		g.Workloads = map[string]map[string]goldenEntry{}
	}
	g.Seed = defaultSeed
	cfg := config{seed: defaultSeed, scale: 1, log: log}
	for _, name := range names {
		chk := newChecker(log)
		var inputs map[string]oracleInput
		if w, ok := findCellWorkload(name); ok {
			r := newCellRunner(cfg, w)
			if err := r.runDefault(chk); err != nil {
				return err
			}
			inputs = r.oracleInputs()
		} else if name == "serve" {
			if inputs, err = serveDefault(chk); err != nil {
				return err
			}
		} else {
			return fmt.Errorf("bench: unknown workload %q", name)
		}
		keys := make([]string, 0, len(inputs))
		for k := range inputs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			chk.expect(k, mine.CountOracle(inputs[k].g, inputs[k].pl), "mine.CountOracle")
		}
		if _, failed := chk.totals(); failed > 0 {
			return fmt.Errorf("bench: %s: %d operations disagree; golden file not written", name, failed)
		}
		g.Workloads[name] = chk.entries()
		fmt.Fprintf(log, "bench: %s: %d golden entries\n", name, len(g.Workloads[name]))
	}
	return saveGolden(path, g)
}

// oracleInput is one graph/pattern pair to count with the reference miner.
type oracleInput struct {
	g  *fingers.Graph
	pl *fingers.Plan
}

// serveDefault simulates every serve job class directly on the
// default-seed graphs, with the options the daemon derives from the
// spec, and returns the graph/pattern pairs for the oracle check.
func serveDefault(chk *checker) (map[string]oracleInput, error) {
	graphs := map[string]*fingers.Graph{}
	for _, name := range serveGraphs {
		g, err := genGraph(name, defaultSeed, 1)
		if err != nil {
			return nil, err
		}
		graphs[name] = g
	}
	inputs := map[string]oracleInput{}
	for _, spec := range serveSpecs() {
		arch, err := spec.ArchValue()
		if err != nil {
			return nil, err
		}
		plans, err := spec.Plans()
		if err != nil {
			return nil, err
		}
		opts, err := spec.ToOptions()
		if err != nil {
			return nil, err
		}
		rep, err := fingers.Simulate(arch, graphs[spec.Graph], plans, opts...)
		if err != nil {
			return nil, err
		}
		countKey := spec.Graph + "/" + spec.Pattern
		chk.observe(serveKey(spec, spec.Graph), countKey, rep.Result.Count, int64(rep.Result.Cycles), true)
		inputs[countKey] = oracleInput{graphs[spec.Graph], plans[0]}
	}
	return inputs, nil
}
