package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"fingers"
)

// cellRunner runs a pass-based workload: every pass runs the workload's
// cells once, in order, on the inputs of the last set-up.
type cellRunner struct {
	cfg    config
	w      cellWorkload
	chk    *checker
	golden *checker // the default-seed pass of verify, when one runs

	graphs map[string]*fingers.Graph
	plans  map[string][]*fingers.Plan // by pattern
	archs  map[string]fingers.Arch
	opts   map[string][]fingers.SimOption // by arch
}

func newCellRunner(cfg config, w cellWorkload) *cellRunner {
	return &cellRunner{cfg: cfg, w: w, chk: newChecker(cfg.log)}
}

// build generates the inputs for seed and compiles the plans and
// simulation options, timing each step.
func (r *cellRunner) build(seed int64, tr *tracer) (map[string]float64, error) {
	spans := map[string]float64{}
	r.graphs = map[string]*fingers.Graph{}
	for _, name := range r.w.graphs {
		t0 := time.Now()
		g, err := genGraph(name, seed, r.cfg.scale)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		g.Hybrid()
		t2 := time.Now()
		tr.span("graph.gen", 0, t0, t1, map[string]any{"graph": name})
		tr.span("graph.hybrid", 0, t1, t2, map[string]any{"graph": name})
		spans["graph.gen_s"] += t1.Sub(t0).Seconds()
		spans["graph.hybrid_s"] += t2.Sub(t1).Seconds()
		r.graphs[name] = g
	}
	t0 := time.Now()
	r.plans = map[string][]*fingers.Plan{}
	r.archs = map[string]fingers.Arch{}
	r.opts = map[string][]fingers.SimOption{}
	for _, c := range r.w.cells {
		if r.plans[c.pattern] == nil {
			pl, err := fingers.JobSpec{Arch: "fingers", Graph: c.graph, Pattern: c.pattern}.Plans()
			if err != nil {
				return nil, err
			}
			r.plans[c.pattern] = pl
		}
		if c.arch == soft || r.opts[c.arch] != nil {
			continue
		}
		spec := fingers.JobSpec{Arch: c.arch, Graph: c.graph, Pattern: c.pattern, PEs: simPEs, CacheKB: r.w.cacheKB}
		opts, err := spec.ToOptions()
		if err != nil {
			return nil, err
		}
		r.archs[c.arch], _ = spec.ArchValue() // ToOptions validated the arch
		r.opts[c.arch] = opts
	}
	t1 := time.Now()
	tr.span("plan.compile", 0, t0, t1, nil)
	spans["plan.compile_ms"] = t1.Sub(t0).Seconds() * 1e3
	return spans, nil
}

func (r *cellRunner) setup(tr *tracer) (map[string]float64, error) {
	spans, err := r.build(r.cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	// Warm-up: the first tc cell of each graph, which also materializes
	// the lazily built bitmap rows before timing starts.
	t0 := time.Now()
	warmed := map[string]bool{}
	for _, c := range r.w.cells {
		if c.pattern == "tc" && !warmed[c.graph] {
			warmed[c.graph] = true
			r.runCell(c, r.chk, tr, nil)
		}
	}
	tr.span("warmup", 0, t0, time.Now(), nil)
	return spans, nil
}

// runCell runs one cell, checks its output with chk, and adds a
// simulation's result to sim when sim is non-nil. It returns the wall
// time of the call.
func (r *cellRunner) runCell(c cell, chk *checker, tr *tracer, sim *simTotals) time.Duration {
	g, plans := r.graphs[c.graph], r.plans[c.pattern]
	t0 := time.Now()
	if c.arch == soft {
		n, err := fingers.CountCtx(context.Background(), g, plans[0], mineWorkers)
		d := time.Since(t0)
		tr.span("mine."+c.graph+"."+c.pattern, 0, t0, t0.Add(d), nil)
		if err != nil {
			chk.fail(c.key(), err)
			return d
		}
		chk.observe(c.key(), c.countKey(), n, 0, false)
		return d
	}
	rep, err := fingers.Simulate(r.archs[c.arch], g, plans, r.opts[c.arch]...)
	d := time.Since(t0)
	tr.span("sim."+c.arch, 0, t0, t0.Add(d), map[string]any{"cell": c.key()})
	if err == nil && rep.Partial {
		err = fmt.Errorf("partial report")
	}
	if err != nil {
		chk.fail(c.key(), err)
		return d
	}
	chk.observe(c.key(), c.countKey(), rep.Result.Count, int64(rep.Result.Cycles), true)
	if sim != nil {
		sim.add(c.arch, d, rep.Result)
	}
	return d
}

func (r *cellRunner) measure(d time.Duration, tr *tracer) (*phase, error) {
	deadline := time.Now().Add(d)
	var sim simTotals
	p := &phase{lat: map[string][]float64{}, layer: map[string]float64{}}
	for len(p.passes) == 0 || time.Now().Before(deadline) {
		runtime.GC()
		p.cal = append(p.cal, calibrate())
		t0 := time.Now()
		for _, c := range r.w.cells {
			p.lat[c.key()] = append(p.lat[c.key()], r.runCell(c, r.chk, tr, &sim).Seconds()*1e3)
		}
		t1 := time.Now()
		tr.span("pass", 0, t0, t1, map[string]any{"pass": len(p.passes)})
		p.passes = append(p.passes, t1.Sub(t0).Seconds())
	}
	p.ops = len(p.passes) * len(r.w.cells)
	for _, c := range r.w.cells {
		if c.arch == soft {
			p.layer[mineSpan(c)] = median(p.lat[c.key()])
		}
	}
	p.work = float64(len(p.passes))
	sim.layers(p.work, p.layer)
	return p, nil
}

func (r *cellRunner) verify() error {
	if r.cfg.seed == defaultSeed && r.cfg.scale == 1 {
		return r.pinGolden(r.chk)
	}
	// Another seed: the simulators already had to agree with each other
	// on every count; they must also agree with the software miner.
	for _, c := range r.w.cells {
		if c.arch == soft {
			continue
		}
		n, err := fingers.CountCtx(context.Background(), r.graphs[c.graph], r.plans[c.pattern][0], mineWorkers)
		if err != nil {
			return err
		}
		r.chk.expect(c.countKey(), n, "fingers.CountCtx")
	}
	if r.cfg.scale != 1 {
		return nil
	}
	// And one pass over the default-seed inputs must reproduce golden.json.
	r.golden = newChecker(r.cfg.log)
	if err := r.runDefault(r.golden); err != nil {
		return err
	}
	return r.pinGolden(r.golden)
}

// runDefault builds the default-seed inputs and runs every cell once,
// checking the outputs with chk.
func (r *cellRunner) runDefault(chk *checker) error {
	if _, err := r.build(defaultSeed, nil); err != nil {
		return err
	}
	for _, c := range r.w.cells {
		r.runCell(c, chk, nil, nil)
	}
	return nil
}

// pinGolden compares a checker's observations with this workload's
// golden entries.
func (r *cellRunner) pinGolden(chk *checker) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	chk.pin(g.Workloads[r.w.name])
	return nil
}

func (r *cellRunner) footprint() map[string]float64 {
	out := map[string]float64{}
	for _, g := range r.graphs {
		fp := g.Hybrid().Footprint()
		out["graph.dense_rows"] += float64(fp.DenseRows)
		out["graph.bitmap_rows"] += float64(fp.BitmapRows)
		out["graph.hybrid_mb"] += mb(fp.HybridBytes())
	}
	return out
}

func (r *cellRunner) totals() (int, int) {
	a, f := r.chk.totals()
	if r.golden != nil {
		ga, gf := r.golden.totals()
		a, f = a+ga, f+gf
	}
	return a, f
}

func (r *cellRunner) release() { r.graphs = nil }

// oracleInputs lists the workload's graph/pattern pairs with their
// graphs and plans, for the reference-miner cross-check of -update.
func (r *cellRunner) oracleInputs() map[string]oracleInput {
	out := map[string]oracleInput{}
	for _, c := range r.w.cells {
		out[c.countKey()] = oracleInput{r.graphs[c.graph], r.plans[c.pattern][0]}
	}
	return out
}

// simTotals accumulates simulated results over a measured stretch.
type simTotals struct {
	wall     time.Duration
	archWall map[string]time.Duration
	sum      fingers.SimResult
	runs     int
}

// add accumulates one simulation of arch that took wall on the host.
func (s *simTotals) add(arch string, wall time.Duration, r fingers.SimResult) {
	if s.archWall == nil {
		s.archWall = map[string]time.Duration{}
	}
	s.wall += wall
	s.archWall[strings.ToLower(arch)] += wall
	s.sum.Cycles += r.Cycles
	s.sum.Tasks += r.Tasks
	s.sum.SharedCache.LineAccesses += r.SharedCache.LineAccesses
	s.sum.SharedCache.LineMisses += r.SharedCache.LineMisses
	s.sum.DRAM.BytesMoved += r.DRAM.BytesMoved
	s.sum.Breakdown.Compute += r.Breakdown.Compute
	s.sum.Breakdown.MemStall += r.Breakdown.MemStall
	s.sum.Breakdown.Overhead += r.Breakdown.Overhead
	s.sum.Breakdown.Idle += r.Breakdown.Idle
	s.runs++
}

// layers writes the per-pass simulator, memory and engine metrics.
func (s *simTotals) layers(n float64, out map[string]float64) {
	if s.runs == 0 || n == 0 {
		return
	}
	for _, a := range []string{"fingers", "flexminer", "sisa"} {
		out["sim."+a+"_s"] = s.archWall[a].Seconds() / n
	}
	r := s.sum
	out["sim.cycles"] = float64(r.Cycles) / n
	out["sim.cycles_per_s"] = ratio(float64(r.Cycles), s.wall.Seconds())
	out["mem.miss_rate"] = r.SharedCache.MissRate()
	out["mem.dram_mb"] = mb(r.DRAM.BytesMoved) / n
	out["accel.tasks"] = float64(r.Tasks) / n
	total := float64(r.Breakdown.Total())
	out["accel.compute_frac"] = ratio(float64(r.Breakdown.Compute), total)
	out["accel.stall_frac"] = ratio(float64(r.Breakdown.MemStall), total)
	out["accel.overhead_frac"] = ratio(float64(r.Breakdown.Overhead), total)
	out["accel.idle_frac"] = ratio(float64(r.Breakdown.Idle), total)
	out["accel.host_ns_per_task"] = ratio(float64(s.wall.Nanoseconds()), float64(r.Tasks))
}
