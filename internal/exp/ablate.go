package exp

import (
	"fmt"
	"math/rand"
	"strings"

	"fingers"
	"fingers/internal/accel"
	"fingers/internal/datasets"
	"fingers/internal/mem"
	"fingers/internal/plan"
)

// AblationPoint is one configuration sample of an ablation sweep.
type AblationPoint struct {
	Label   string
	Cycles  mem.Cycles
	Speedup float64 // versus the sweep's default configuration
}

// AblationResult is one design-choice sweep on one workload.
type AblationResult struct {
	Name    string
	Graph   string
	Pattern string
	Points  []AblationPoint
}

// String renders the sweep.
func (r *AblationResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ablation %s (%s on %s)\n", r.Name, r.Pattern, r.Graph)
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "  %-18s %12d cycles %7.2fx\n", p.Label, p.Cycles, p.Speedup)
	}
	return sb.String()
}

// ablationWorkload picks the sweep workload: a set-operation-rich pattern
// on a graph small enough to sweep repeatedly.
func ablationWorkload(opts Options) gridCell {
	d := datasets.Small()[1] // Mi
	if !opts.Quick {
		var err error
		if d, err = datasets.ByName("As"); err != nil {
			panic(err)
		}
	}
	plans, err := plan.ForBenchmark("tt")
	if err != nil {
		panic(err)
	}
	return gridCell{"tt", plans, d}
}

// ablConfig labels one swept PE configuration.
type ablConfig struct {
	label string
	cfg   fingers.AcceleratorConfig
}

func runAblation(opts Options, name string, configs []ablConfig, defaultIdx int) *AblationResult {
	c := ablationWorkload(opts)
	opts.Log = nil // ablation sweeps write no run records
	res := &AblationResult{Name: name, Graph: c.d.Name, Pattern: c.pattern}
	cycles := make([]mem.Cycles, len(configs))
	for i, ac := range configs {
		cycles[i] = opts.simulate(fingers.ArchFingers, "ablate", c, ac.cfg, 1, opts.cacheBytes()).Result.Cycles
	}
	base := cycles[defaultIdx]
	for i, ac := range configs {
		res.Points = append(res.Points, AblationPoint{
			Label:   ac.label,
			Cycles:  cycles[i],
			Speedup: float64(base) / float64(cycles[i]),
		})
	}
	return res
}

// AblateGroupSize sweeps the pseudo-DFS task-group size against the
// adaptive default (§4.1: "performance is insensitive to these
// parameters" — this sweep verifies that claim).
func AblateGroupSize(opts Options) *AblationResult {
	sizes := []int{1, 2, 4, 8, 16, 32}
	configs := []ablConfig{{"auto (paper)", fingers.DefaultAcceleratorConfig()}}
	for _, s := range sizes {
		c := fingers.DefaultAcceleratorConfig()
		c.GroupSize = s
		configs = append(configs, ablConfig{fmt.Sprintf("group=%d", s), c})
	}
	return runAblation(opts, "task-group size", configs, 0)
}

// AblateMaxLoad sweeps the load-balance split threshold of the task
// dividers (§4.2).
func AblateMaxLoad(opts Options) *AblationResult {
	var configs []ablConfig
	for _, ml := range []int{1, 2, 4, 8, 24} {
		c := fingers.DefaultAcceleratorConfig()
		c.MaxLoad = ml
		configs = append(configs, ablConfig{fmt.Sprintf("maxload=%d", ml), c})
	}
	return runAblation(opts, "divider max load", configs, 1) // default 2
}

// AblateDividers sweeps the task-divider count (§4.2: 12 per PE).
func AblateDividers(opts Options) *AblationResult {
	var configs []ablConfig
	idx := 0
	for i, nd := range []int{1, 2, 4, 12, 24} {
		c := fingers.DefaultAcceleratorConfig()
		c.NumDividers = nd
		if nd == 12 {
			idx = i
		}
		configs = append(configs, ablConfig{fmt.Sprintf("dividers=%d", nd), c})
	}
	return runAblation(opts, "task dividers", configs, idx)
}

// AblateSegmentGeometry sweeps the (s_l, s_s) segment lengths at a fixed
// IU count, isolating the geometry choice from the iso-area IU sweep of
// Figure 12.
func AblateSegmentGeometry(opts Options) *AblationResult {
	var configs []ablConfig
	idx := 0
	for i, geo := range [][2]int{{4, 2}, {8, 2}, {16, 4}, {32, 8}, {64, 16}} {
		c := fingers.DefaultAcceleratorConfig()
		c.LongSegLen, c.ShortSegLen = geo[0], geo[1]
		if geo[0] == 16 {
			idx = i
		}
		configs = append(configs, ablConfig{fmt.Sprintf("sl=%d ss=%d", geo[0], geo[1]), c})
	}
	return runAblation(opts, "segment geometry", configs, idx)
}

// AblateRootOrder compares root-vertex scheduling policies on a full
// FINGERS chip: sequential IDs (adjacent roots co-scheduled — the
// locality policy §6.3 proposes), degree-descending (big trees first, a
// load-balance policy), and a deterministic shuffle (locality destroyed).
func AblateRootOrder(opts Options) *AblationResult {
	c := ablationWorkload(opts)
	g := c.d.Graph()
	n := g.NumVertices()
	shuffled := make([]uint32, n)
	for i := range shuffled {
		shuffled[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(12345))
	rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	policies := []struct {
		label string
		sched func() *accel.RootScheduler
	}{
		{"sequential", func() *accel.RootScheduler { return accel.NewRootScheduler(n) }},
		{"degree-desc", func() *accel.RootScheduler { return accel.NewRootSchedulerWithOrder(g.DegreeOrder()) }},
		{"shuffled", func() *accel.RootScheduler { return accel.NewRootSchedulerWithOrder(shuffled) }},
	}
	res := &AblationResult{Name: "root scheduling", Graph: c.d.Name, Pattern: c.pattern}
	pes := opts.fingersPEs()
	var base mem.Cycles
	for i, pol := range policies {
		// The one chip built outside fingers.Simulate: the façade runs
		// roots in ID order or sharded, never in a custom order.
		chip, err := accel.NewChip(pes, opts.cacheBytes(), g, c.plans, pol.sched(), fingers.DefaultAcceleratorConfig().NewPE)
		if err != nil {
			panic(fmt.Sprintf("exp: chip construction: %v", err))
		}
		r, err := chip.Run(opts.ctx(), 0, nil)
		if err != nil && opts.ctx().Err() == nil {
			panic(fmt.Sprintf("exp: simulation: %v", err))
		}
		if i == 0 {
			base = r.Cycles
		}
		res.Points = append(res.Points, AblationPoint{
			Label:   pol.label,
			Cycles:  r.Cycles,
			Speedup: float64(base) / float64(r.Cycles),
		})
	}
	return res
}

// AblateHybridStorage compares the set-operation substrate on one
// workload: the list-centric FlexMiner baseline, the SISA-style
// set-centric model running over the graph's adaptive hybrid storage
// view (ArchSISA), and the FINGERS segment-parallel design — the
// hybrid-storage-versus-segments question. Counts are identical across
// all three; only the timing model changes.
func AblateHybridStorage(opts Options) *AblationResult {
	c := ablationWorkload(opts)
	opts.Log = nil // ablation sweeps write no run records
	points := []struct {
		label string
		arch  fingers.Arch
	}{
		{"list-centric", fingers.ArchFlexMiner},
		{"set-centric (SISA)", fingers.ArchSISA},
		{"segments (FINGERS)", fingers.ArchFingers},
	}
	res := &AblationResult{Name: "hybrid set storage", Graph: c.d.Name, Pattern: c.pattern}
	var base mem.Cycles
	for i, p := range points {
		cy := opts.simulate(p.arch, "ablate", c, fingers.DefaultAcceleratorConfig(), 1, opts.cacheBytes()).Result.Cycles
		if i == 0 {
			base = cy
		}
		res.Points = append(res.Points, AblationPoint{
			Label:   p.label,
			Cycles:  cy,
			Speedup: float64(base) / float64(cy),
		})
	}
	return res
}

// Ablations runs every design-choice sweep.
func Ablations(opts Options) []*AblationResult {
	return []*AblationResult{
		AblateGroupSize(opts),
		AblateMaxLoad(opts),
		AblateDividers(opts),
		AblateSegmentGeometry(opts),
		AblateRootOrder(opts),
		AblateHybridStorage(opts),
	}
}
