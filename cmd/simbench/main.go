// Command simbench benchmarks the simulator itself: it runs the quick
// experiment grid (small datasets × {tc, tt, cyc}) on the serial event
// loop and reports wall time, simulated cycles per second, and
// allocation and GC-pause totals; with -shards it also measures the
// sharded mode and its wall-clock speedup over serial.
//
// Usage:
//
//	simbench [-pes 8] [-shards 2] [-o BENCH_sim.json]
//	         [-runs 1] [-reps 3] [-run-tag ci] [-min-shard-speedup 1.2]
//
// Each cell is measured -runs times (every measurement itself best-of
// -reps timed repetitions) and the medians are reported — single-shot
// wall times on shared CI runners are too noisy for downstream trend
// tooling to flag regressions honestly. The report header records the
// run count plus provenance (start time, git revision, host shape, and
// the optional -run-tag batch label) so reports can be ordered and
// attributed across time.
//
// The JSON report records the host core count: the sharded speedup needs
// real cores, while sharded counts are bit-identical on any host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"fingers"
	"fingers/internal/datasets"
	"fingers/internal/plan"
	"fingers/internal/simreport"
	"fingers/internal/telemetry"
)

// measured is one instrumented run: wall time plus MemStats deltas.
type measured struct {
	ns     int64
	allocs uint64
	bytes  uint64
	pause  uint64
}

// measure times f with allocation accounting. The GC runs first so the
// deltas reflect f alone, not a prior run's deferred collection.
func measure(f func()) measured {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	ns := time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&m1)
	return measured{
		ns:     ns,
		allocs: m1.Mallocs - m0.Mallocs,
		bytes:  m1.TotalAlloc - m0.TotalAlloc,
		pause:  m1.PauseTotalNs - m0.PauseTotalNs,
	}
}

// measureCell runs one (graph, pattern) cell once: reps timed serial
// repetitions, keeping the best time. shards > 1 additionally measures
// the sharded mode (shards independent chips on separate OS threads,
// serial event loop inside each). Both modes time whole Simulate calls,
// chip construction included.
func measureCell(g *fingers.Graph, plans []*fingers.Plan, pes, reps, shards int) (simreport.Cell, error) {
	var cell simreport.Cell
	var serial fingers.SimResult
	cell.SerialWallNS = int64(math.MaxInt64)
	for r := 0; r < reps; r++ {
		var err error
		m := measure(func() {
			var rep fingers.SimReport
			rep, err = fingers.Simulate(fingers.ArchFingers, g, plans, fingers.WithPEs(pes))
			serial = rep.Result
		})
		if err != nil {
			return cell, err
		}
		if m.ns < cell.SerialWallNS {
			cell.SerialWallNS = m.ns
			cell.SerialAllocs, cell.SerialAllocBytes, cell.SerialGCPauseNS = m.allocs, m.bytes, m.pause
		}
	}
	if shards > 1 {
		cell.ShardedWallNS = int64(math.MaxInt64)
		for r := 0; r < reps; r++ {
			var rep fingers.SimReport
			var err error
			m := measure(func() {
				rep, err = fingers.Simulate(fingers.ArchFingers, g, plans,
					fingers.WithPEs(pes), fingers.WithShards(shards))
			})
			if err != nil {
				return cell, err
			}
			if m.ns < cell.ShardedWallNS {
				cell.ShardedWallNS = m.ns
				cell.ShardWallsNS = rep.ShardWallNS
				cell.ShardedAllocs = m.allocs
			}
			cell.ShardedCountsOK = rep.Result.Count == serial.Count && rep.Result.Tasks == serial.Tasks
			if !cell.ShardedCountsOK {
				return cell, fmt.Errorf("sharded counts diverge from serial (%d != %d)",
					rep.Result.Count, serial.Count)
			}
		}
	}
	cell.SimCycles = serial.Cycles
	return cell, nil
}

// medianCell combines N independent measurements of one cell into the
// reported cell: per mode, the median wall time (lower middle for even
// N) with its allocation profile. Simulated results are deterministic,
// so cycles come from the first sample and must agree across all of
// them.
func medianCell(samples []simreport.Cell) simreport.Cell {
	cell := samples[0]
	pick := func(key func(simreport.Cell) int64) simreport.Cell {
		sorted := append([]simreport.Cell(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return key(sorted[i]) < key(sorted[j]) })
		return sorted[(len(sorted)-1)/2]
	}
	s := pick(func(c simreport.Cell) int64 { return c.SerialWallNS })
	cell.SerialWallNS = s.SerialWallNS
	cell.SerialAllocs, cell.SerialAllocBytes, cell.SerialGCPauseNS = s.SerialAllocs, s.SerialAllocBytes, s.SerialGCPauseNS
	if cell.ShardedWallNS > 0 {
		sh := pick(func(c simreport.Cell) int64 { return c.ShardedWallNS })
		cell.ShardedWallNS = sh.ShardedWallNS
		cell.ShardWallsNS = sh.ShardWallsNS
		cell.ShardedAllocs = sh.ShardedAllocs
	}
	return cell
}

// finishCell derives the rate and ratio fields from the (possibly
// median) wall times.
func finishCell(cell *simreport.Cell) {
	cell.SerialCyclesSec = float64(cell.SimCycles) / (float64(cell.SerialWallNS) / 1e9)
	if cell.ShardedWallNS > 0 {
		cell.ShardedSpeedup = float64(cell.SerialWallNS) / float64(cell.ShardedWallNS)
	}
}

func main() {
	pes := flag.Int("pes", 8, "simulated chip PE count")
	shards := flag.Int("shards", 0, "also measure the sharded mode with this many independent engine instances (0 = off; clamped to -pes)")
	minShardSpeed := flag.Float64("min-shard-speedup", 0, "fail when the sharded speedup geomean is at or below this (0 = no gate); the CI multi-core scaling guard")
	reps := flag.Int("reps", 3, "timed repetitions per measurement (best-of)")
	runs := flag.Int("runs", 1, "independent measurements per cell; the report carries their median")
	runTag := flag.String("run-tag", "", "batch label recorded in the report header (groups runs in the trend viewer)")
	out := flag.String("o", "BENCH_sim.json", "output JSON path")
	flag.Parse()

	if *runs < 1 {
		fatal(fmt.Errorf("-runs must be >= 1, got %d", *runs))
	}
	effShards := *shards
	if effShards > *pes {
		effShards = *pes // mirrors the façade's own clamp
	}
	if effShards == 1 {
		effShards = 0
	}

	meta := telemetry.HostMeta()
	meta.RunTag = *runTag
	started := time.Now()
	rep := simreport.Report{
		Schema: simreport.Schema,
		Meta:   meta,
		PEs:    *pes,
		Runs:   *runs,
		Shards: effShards,
		Note: "the sharded speedup requires free host cores; " +
			"sharded counts are bit-identical to serial on any host",
	}
	if meta.HostCores == 1 || meta.GoMaxProcs == 1 {
		rep.Warning = fmt.Sprintf(
			"single-core measurement (host_cores=%d, gomaxprocs=%d): every wall-clock speedup below is an artifact of time slicing; rerun on a multi-core host for a scaling verdict",
			meta.HostCores, meta.GoMaxProcs)
		fmt.Fprintf(os.Stderr, "simbench: WARNING: %s\n", rep.Warning)
	}

	logCPS, logShard := 0.0, 0.0
	for _, d := range datasets.Small() {
		g := d.Graph()
		for _, pat := range []string{"tc", "tt", "cyc"} {
			plans, err := plan.ForBenchmark(pat)
			if err != nil {
				fatal(err)
			}
			samples := make([]simreport.Cell, *runs)
			for i := range samples {
				samples[i], err = measureCell(g, plans, *pes, *reps, effShards)
				if err != nil {
					fatal(err)
				}
				if samples[i].SimCycles != samples[0].SimCycles {
					fatal(fmt.Errorf("%s/%s: run %d disagrees with run 0 on simulated results", d.Name, pat, i))
				}
			}
			cell := medianCell(samples)
			cell.Graph, cell.Pattern = d.Name, pat
			finishCell(&cell)
			// Representation-mix columns (v4): how the adaptive hybrid
			// view classified this graph, and what the non-array tiers
			// cost.
			fp := g.Hybrid().Footprint()
			cell.DenseRows = fp.DenseRows
			cell.BitmapRows = fp.BitmapRows
			cell.HybridBytes = fp.HybridBytes()
			rep.Cells = append(rep.Cells, cell)

			logCPS += math.Log(cell.SerialCyclesSec)
			shardCol := ""
			if cell.ShardedSpeedup > 0 {
				logShard += math.Log(cell.ShardedSpeedup)
				shardCol = fmt.Sprintf("  sharded %8.1fms  shard %5.2fx", float64(cell.ShardedWallNS)/1e6, cell.ShardedSpeedup)
			}
			fmt.Printf("%-3s %-4s serial %8.1fms%s  allocs %d  dense %d  bm %d  hyb %.1fKB\n",
				d.Name, pat, float64(cell.SerialWallNS)/1e6, shardCol, cell.SerialAllocs,
				cell.DenseRows, cell.BitmapRows, float64(cell.HybridBytes)/1024)
		}
	}
	n := float64(len(rep.Cells))
	rep.GeomeanSerCPS = math.Exp(logCPS / n)
	if effShards > 1 {
		rep.GeomeanShardSpeed = math.Exp(logShard / n)
	}
	rep.WallNS = time.Since(started).Nanoseconds()

	fmt.Printf("serial %.0f cycles/sec geomean (host cores %d, runs %d)\n",
		rep.GeomeanSerCPS, rep.HostCores, rep.Runs)
	if effShards > 1 {
		fmt.Printf("geomean sharded speedup %.2fx (%d shards over %d PEs)\n", rep.GeomeanShardSpeed, effShards, *pes)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", *out)

	if *minShardSpeed > 0 {
		if effShards <= 1 {
			fatal(fmt.Errorf("-min-shard-speedup needs -shards > 1"))
		}
		if rep.GeomeanShardSpeed <= *minShardSpeed {
			fatal(fmt.Errorf("sharded speedup geomean %.2fx is at or below the %.2fx gate (%d shards, host cores %d)",
				rep.GeomeanShardSpeed, *minShardSpeed, effShards, rep.HostCores))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simbench:", err)
	os.Exit(1)
}
