package main

import (
	"fmt"

	"fingers"
	"fingers/internal/graph/gen"
)

// defaultSeed reproduces the repository's dataset analogues exactly (the
// generator seeds of internal/datasets: As 101, Mi 102+202, Lj 105,
// Or 106) plus the dense cell's seed 7, the inputs bench/golden.json pins.
const defaultSeed = 0

// seedStride separates the generator seeds of consecutive benchmark
// seeds, so no two benchmark seeds share a graph.
const seedStride = 1000

// genGraph generates the named input graph for a benchmark seed. The
// generator parameters are those of the dataset analogues; scale > 1
// shrinks every graph for the smoke test. Names:
//
//	As, Mi, Lj, Or  the Table-1 analogues of internal/datasets
//	Lj5k            the Lj generator at 5,000 vertices, an over-capacity
//	                graph for a cache scaled down by the same factor of 8
//	dense           G(1024, 200000), about 38% density
func genGraph(name string, seed int64, scale int) (*fingers.Graph, error) {
	off := seed * seedStride
	n := func(v uint32) uint32 { return v / uint32(scale) }
	switch name {
	case "As":
		return gen.PowerLawCluster(n(3000), 10, 0.50, 101+off), nil
	case "Mi":
		base := gen.PowerLawCluster(n(6000), 4, 0.85, 102+off)
		return gen.WithPlantedCliques(base, 80/scale, 6, 202+off), nil
	case "Lj":
		return gen.PowerLawCluster(n(40_000), 9, 0.55, 105+off), nil
	case "Lj5k":
		return gen.PowerLawCluster(n(5000), 9, 0.55, 105+off), nil
	case "Or":
		return gen.PowerLawCluster(n(12_000), 16, 0.35, 106+off), nil
	case "dense":
		return gen.ErdosRenyi(n(1024), 200_000/(scale*scale), 7+off), nil
	}
	return nil, fmt.Errorf("bench: unknown graph %q", name)
}

// cell is one operation of a pass: a simulation of one architecture, or
// (arch "soft") a software count with fingers.CountCtx.
type cell struct {
	graph, pattern, arch string
}

// key names the cell in golden.json and in failure messages.
func (c cell) key() string { return c.graph + "/" + c.pattern + "/" + c.arch }

// countKey names the embedding count every implementation must agree on.
func (c cell) countKey() string { return c.graph + "/" + c.pattern }

// soft is the arch of software-miner cells.
const soft = "soft"

// mineWorkers is the worker count of every software-miner cell.
const mineWorkers = 2

// simPEs is the PE count of every sim-* cell.
const simPEs = 8

// cellWorkload is a workload whose pass runs a fixed list of cells.
type cellWorkload struct {
	name   string
	graphs []string
	cells  []cell
	// cacheKB is the modelled shared cache of the sim-* chips.
	cacheKB int64
}

// cross lists graphs × patterns × archs in that nesting order.
func cross(graphs, patterns, archs []string) []cell {
	var out []cell
	for _, g := range graphs {
		for _, p := range patterns {
			for _, a := range archs {
				out = append(out, cell{g, p, a})
			}
		}
	}
	return out
}

// The four pass-based workloads. sim-thrash keeps Lj's footprint-to-cache
// ratio (2.9 MB of adjacency over a 1 MB cache) at one eighth of the
// size, so a pass takes under a second instead of eight.
var cellWorkloads = []cellWorkload{
	{
		name:    "sim-fit",
		graphs:  []string{"As", "Mi"},
		cells:   cross([]string{"As", "Mi"}, []string{"tc", "tt"}, []string{"fingers", "flexminer", "sisa"}),
		cacheKB: 1024,
	},
	{
		name:    "sim-thrash",
		graphs:  []string{"Lj5k"},
		cells:   cross([]string{"Lj5k"}, []string{"tc", "tt"}, []string{"fingers", "flexminer"}),
		cacheKB: 128,
	},
	{
		name:   "mine-sparse",
		graphs: []string{"Lj", "Or"},
		cells:  cross([]string{"Lj", "Or"}, []string{"tc", "4cl", "tt"}, []string{soft}),
	},
	{
		name:   "mine-dense",
		graphs: []string{"dense"},
		cells:  cross([]string{"dense"}, []string{"tc", "4cl"}, []string{soft}),
	},
}

// workloadNames lists every workload in run order.
func workloadNames() []string {
	var out []string
	for _, w := range cellWorkloads {
		out = append(out, w.name)
	}
	return append(out, "serve")
}

// findCellWorkload returns the pass-based workload with the given name.
func findCellWorkload(name string) (cellWorkload, bool) {
	for _, w := range cellWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return cellWorkload{}, false
}
