// Series construction: group the corpus into per-key series and
// compute rolling means ±1σ over a sliding window.

package trend

import (
	"sort"
)

// DefaultWindow is the rolling-statistics window in points.
const DefaultWindow = 5

// Options filters and tunes series construction.
type Options struct {
	// Window is the rolling-statistics width in points (default 5).
	Window int
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

// Series is one run configuration's history (see Key).
type Series struct {
	Key    Key
	Points []Point
	// Roll is aligned with Points: Roll[i] summarises the window
	// ending at Points[i].
	Roll []Roll
}

// BenchSeries is one (graph, pattern) simbench cell's history across
// reports; the tracked metric is serial cycles/sec.
type BenchSeries struct {
	Graph, Pattern string
	Points         []BenchPoint
	Roll           []Roll // MeanCPS/SigmaCPS of SerialCPS; cycle fields unused
}

// Model is the shared structure all three renderers consume.
type Model struct {
	Window int
	Series []*Series
	Bench  []*BenchSeries
	Corpus *Corpus
}

// Build groups the corpus into sorted series and computes rolling
// statistics.
func Build(c *Corpus, opt Options) *Model {
	w := opt.window()
	m := &Model{Window: w, Corpus: c}

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
