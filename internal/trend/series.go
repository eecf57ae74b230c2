// Series construction: group the corpus into per-key series, compute
// rolling means ±1σ over a sliding window, and flag regressions of the
// latest point against the window preceding it.

package trend

import (
	"sort"
)

// DefaultWindow is the rolling-statistics window in points.
const DefaultWindow = 5

// DefaultMaxRegressPct is the default regression-flag threshold, in
// percent.
const DefaultMaxRegressPct = 10.0

// Options filters and tunes series construction.
type Options struct {
	// Window is the rolling-statistics width in points (default 5).
	Window int
	// MaxRegressPct is the regression-flag threshold (default 10).
	MaxRegressPct float64
	// Arch/Graph/Pattern/Tag keep only matching series or batches;
	// empty matches everything (the viewer's situation filter).
	Arch, Graph, Pattern, Tag string
	// Last keeps only the newest N points of each series (0 = all).
	Last int
}

func (o Options) window() int {
	if o.Window > 0 {
		return o.Window
	}
	return DefaultWindow
}

func (o Options) maxRegressPct() float64 {
	if o.MaxRegressPct > 0 {
		return o.MaxRegressPct
	}
	return DefaultMaxRegressPct
}

// Roll is the rolling statistics at one point: mean and population σ
// over the window ending there (shorter near the series head).
type Roll struct {
	MeanCycles  float64 `json:"mean_cycles"`
	SigmaCycles float64 `json:"sigma_cycles"`
	// MeanCPS/SigmaCPS cover cycles/sec and are zero when the window
	// holds no wall-time data (records predating the wall_ns field).
	MeanCPS  float64 `json:"mean_cps"`
	SigmaCPS float64 `json:"sigma_cps"`
}

// Series is one (arch, graph, pattern) cell's history.
type Series struct {
	Key    Key
	Points []Point
	// Roll is aligned with Points: Roll[i] summarises the window
	// ending at Points[i].
	Roll []Roll
	// Flag is non-nil when the newest point regressed against the
	// window preceding it.
	Flag *Regression
}

// BenchSeries is one (graph, pattern) simbench cell's history across
// reports; the tracked metric is serial cycles/sec, the same quantity
// the CI gate guards.
type BenchSeries struct {
	Graph, Pattern string
	Points         []BenchPoint
	Roll           []Roll // MeanCPS/SigmaCPS of SerialCPS; cycle fields unused
	Flag           *Regression
}

// Model is the shared structure all three renderers consume.
type Model struct {
	Window        int
	MaxRegressPct float64
	Series        []*Series
	Bench         []*BenchSeries
	Corpus        *Corpus
}

// Regressions counts flagged series of both kinds.
func (m *Model) Regressions() int {
	n := 0
	for _, s := range m.Series {
		if s.Flag != nil {
			n++
		}
	}
	for _, b := range m.Bench {
		if b.Flag != nil {
			n++
		}
	}
	return n
}

// Build groups the corpus into sorted series and computes rolling
// statistics and regression flags.
func Build(c *Corpus, opt Options) *Model {
	w := opt.window()
	maxPct := opt.maxRegressPct()
	m := &Model{Window: w, MaxRegressPct: maxPct, Corpus: c}

	keys := make([]Key, 0, len(c.Points))
	for k := range c.Points {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	for _, k := range keys {
		if !match(opt.Arch, k.Arch) || !match(opt.Graph, k.Graph) || !match(opt.Pattern, k.Pattern) {
			continue
		}
		pts := filterTag(c.Points[k], opt.Tag)
		pts = lastN(pts, opt.Last)
		if len(pts) == 0 {
			continue
		}
		s := &Series{Key: k, Points: pts}
		s.Roll = rollStats(pts, w)
		s.Flag = seriesFlag(pts, w, maxPct)
		m.Series = append(m.Series, s)
	}

	byCell := map[Key][]BenchPoint{}
	var cells []Key
	for _, bp := range c.Bench {
		if !match(opt.Graph, bp.Graph) || !match(opt.Pattern, bp.Pattern) {
			continue
		}
		if opt.Tag != "" && bp.Tag != opt.Tag {
			continue
		}
		k := Key{Graph: bp.Graph, Pattern: bp.Pattern}
		if _, seen := byCell[k]; !seen {
			cells = append(cells, k)
		}
		byCell[k] = append(byCell[k], bp)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Less(cells[j]) })
	for _, k := range cells {
		pts := byCell[k]
		if opt.Last > 0 && len(pts) > opt.Last {
			pts = pts[len(pts)-opt.Last:]
		}
		b := &BenchSeries{Graph: k.Graph, Pattern: k.Pattern, Points: pts}
		cps := make([]float64, len(pts))
		for i, p := range pts {
			cps[i] = p.SerialCPS
		}
		b.Roll = rollCPS(cps, w)
		if n := len(cps); n >= 3 {
			lo := n - 1 - w
			if lo < 0 {
				lo = 0
			}
			b.Flag = flagRegress("serial_cycles_sec", cps[n-1], cps[lo:n-1], maxPct, false)
		}
		m.Bench = append(m.Bench, b)
	}
	return m
}

func match(filter, v string) bool { return filter == "" || filter == v }

func filterTag(pts []Point, tag string) []Point {
	if tag == "" {
		return pts
	}
	out := make([]Point, 0, len(pts))
	for _, p := range pts {
		if p.Tag == tag {
			out = append(out, p)
		}
	}
	return out
}

func lastN(pts []Point, n int) []Point {
	if n > 0 && len(pts) > n {
		return pts[len(pts)-n:]
	}
	return pts
}

// rollStats computes the windowed mean/σ of cycles and cycles/sec at
// every point. Cycles/sec averages only the points that carry wall
// time, so a series mixing old (no wall_ns) and new records still
// trends the measurable suffix.
func rollStats(pts []Point, w int) []Roll {
	out := make([]Roll, len(pts))
	for i := range pts {
		lo := i - w + 1
		if lo < 0 {
			lo = 0
		}
		var cyc, cps []float64
		for _, p := range pts[lo : i+1] {
			cyc = append(cyc, float64(p.Cycles))
			if p.CyclesPerSec > 0 {
				cps = append(cps, p.CyclesPerSec)
			}
		}
		out[i].MeanCycles, out[i].SigmaCycles = meanStd(cyc)
		if len(cps) > 0 {
			out[i].MeanCPS, out[i].SigmaCPS = meanStd(cps)
		}
	}
	return out
}

func rollCPS(cps []float64, w int) []Roll {
	out := make([]Roll, len(cps))
	for i := range cps {
		lo := i - w + 1
		if lo < 0 {
			lo = 0
		}
		out[i].MeanCPS, out[i].SigmaCPS = meanStd(cps[lo : i+1])
	}
	return out
}

// seriesFlag checks the newest point against the window before it.
// Cycles/sec is preferred when both the latest point and the baseline
// window carry wall time (a wall-clock slowdown is the actionable
// signal); otherwise simulated cycles stand in (an algorithmic
// regression — more cycles for the same cell — is still visible
// without timestamps). Partial records never participate: a truncated
// run's cycle count says nothing about speed.
func seriesFlag(pts []Point, w int, maxPct float64) *Regression {
	full := make([]Point, 0, len(pts))
	for _, p := range pts {
		if !p.Partial {
			full = append(full, p)
		}
	}
	n := len(full)
	if n < 3 {
		return nil
	}
	lo := n - 1 - w
	if lo < 0 {
		lo = 0
	}
	latest, base := full[n-1], full[lo:n-1]
	var baseCPS []float64
	for _, p := range base {
		if p.CyclesPerSec > 0 {
			baseCPS = append(baseCPS, p.CyclesPerSec)
		}
	}
	if latest.CyclesPerSec > 0 && len(baseCPS) >= 2 {
		return flagRegress("cycles_per_sec", latest.CyclesPerSec, baseCPS, maxPct, false)
	}
	baseCyc := make([]float64, len(base))
	for i, p := range base {
		baseCyc[i] = float64(p.Cycles)
	}
	return flagRegress("cycles", float64(latest.Cycles), baseCyc, maxPct, true)
}
