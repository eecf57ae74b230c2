// Static HTML renderer: a self-contained page (inline CSS + SVG, no
// external assets, no scripts) fit for a CI artifact. Charts follow
// the repo's chart conventions: categorical series colors in fixed
// order, a single hue with a ±1σ band for magnitude-over-time, a
// blue↔red diverging scale with a neutral midpoint for the bench heat
// table, and native <title> tooltips on hover targets.

package main

import (
	"fmt"
	"html"
	"io"
	"math"
	"strings"

	"fingers/internal/trend"
)

// Chart geometry.
const (
	chartW     = 560
	chartH     = 120
	stackH     = 90
	chartPad   = 6
	chartPadB  = 4
	labelSpace = 52 // right gutter for min/max labels
)

// Breakdown bucket colors: categorical slots 1–4 (blue, orange, aqua,
// yellow) in the validated adjacent order; light/dark variants are
// swapped by CSS custom properties.
var bucketNames = [4]string{"compute", "stall", "overhead", "idle"}

const pageCSS = `
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --surface-2: #f0efec;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #73726e;
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a; --series-4: #eda100;
  --pos: 42,120,214; --neg: 208,59,59;
  font: 14px/1.45 system-ui, sans-serif;
  background: var(--surface-1); color: var(--text-primary);
  margin: 0 auto; max-width: 960px; padding: 24px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --surface-2: #383835;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #8f8e88;
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70; --series-4: #c98500;
    --pos: 57,135,229; --neg: 230,103,103;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; border-bottom: 1px solid var(--surface-2); padding-bottom: 4px; }
h3 { font-size: 14px; margin: 0 0 6px; font-weight: 600; }
.meta, .src { color: var(--text-secondary); margin: 0 0 4px; }
.card { border: 1px solid var(--surface-2); border-radius: 8px; padding: 12px 14px; margin: 0 0 14px; }
.legend { display: flex; gap: 14px; margin: 4px 0 0; color: var(--text-secondary); font-size: 12px; flex-wrap: wrap; }
.legend .sw { display: inline-block; width: 10px; height: 10px; border-radius: 2px; margin-right: 4px; vertical-align: -1px; }
figure { margin: 8px 0 0; }
figcaption { color: var(--text-muted); font-size: 12px; margin-bottom: 2px; }
table { border-collapse: collapse; font-size: 13px; }
th, td { padding: 3px 10px; text-align: right; border-bottom: 1px solid var(--surface-2); }
th { color: var(--text-secondary); font-weight: 600; }
th.rowh, td.rowh { text-align: left; }
.heat td.v { min-width: 64px; }
.skips { color: var(--text-muted); font-size: 12px; }
svg text { fill: var(--text-muted); font: 10px system-ui, sans-serif; }
`

// fmtSI mirrors the terminal SI formatter for chart labels.
func fmtSI(v float64) string { return siFloat(v) }

// xAt maps point index i of n onto the chart's inner x span.
func xAt(i, n int) float64 {
	if n <= 1 {
		return chartPad
	}
	return chartPad + float64(i)/float64(n-1)*float64(chartW-chartPad-labelSpace)
}

// yAt maps v within [lo,hi] onto the chart's inner y span (inverted).
func yAt(v, lo, hi float64, h int) float64 {
	if hi <= lo {
		return float64(h) / 2
	}
	return chartPad + (1-(v-lo)/(hi-lo))*float64(h-chartPad-chartPadB)
}

// svgLineChart draws one metric over point index: an optional ±1σ
// rolling band under a 2px line, ≥12px invisible hover targets with
// native <title> tooltips, and min/max labels in the right gutter.
// Zero values are gaps, not points.
func svgLineChart(sb *strings.Builder, vs []float64, roll []trend.Roll, cps bool, labels []string) {
	lo, hi := math.Inf(1), math.Inf(-1)
	sel := func(r trend.Roll) (mean, sigma float64) {
		if cps {
			return r.MeanCPS, r.SigmaCPS
		}
		return r.MeanCycles, r.SigmaCycles
	}
	for i, v := range vs {
		if v > 0 {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if roll != nil {
			if m, s := sel(roll[i]); m > 0 {
				lo, hi = math.Min(lo, m-s), math.Max(hi, m+s)
			}
		}
	}
	if math.IsInf(lo, 1) {
		return
	}
	fmt.Fprintf(sb, `<svg role="img" viewBox="0 0 %d %d" width="%d" height="%d">`, chartW, chartH, chartW, chartH)
	n := len(vs)
	// ±1σ band: top edge mean+σ forward, bottom edge mean−σ backward.
	if roll != nil && n > 1 {
		var top, bot []string
		for i := 0; i < n; i++ {
			m, s := sel(roll[i])
			if m <= 0 {
				continue
			}
			top = append(top, fmt.Sprintf("%.1f,%.1f", xAt(i, n), yAt(m+s, lo, hi, chartH)))
			bot = append(bot, fmt.Sprintf("%.1f,%.1f", xAt(i, n), yAt(m-s, lo, hi, chartH)))
		}
		if len(top) > 1 {
			for i, j := 0, len(bot)-1; i < j; i, j = i+1, j-1 {
				bot[i], bot[j] = bot[j], bot[i]
			}
			fmt.Fprintf(sb, `<polygon points="%s %s" fill="var(--series-1)" opacity="0.15"/>`,
				strings.Join(top, " "), strings.Join(bot, " "))
		}
	}
	// Data line: split into segments at gaps (zero values).
	var seg []string
	flush := func() {
		if len(seg) > 1 {
			fmt.Fprintf(sb, `<polyline points="%s" fill="none" stroke="var(--series-1)" stroke-width="2" stroke-linejoin="round"/>`,
				strings.Join(seg, " "))
		} else if len(seg) == 1 {
			fmt.Fprintf(sb, `<circle cx="%s" r="3" fill="var(--series-1)"/>`,
				strings.Replace(seg[0], ",", `" cy="`, 1))
		}
		seg = seg[:0]
	}
	for i, v := range vs {
		if v == 0 {
			flush()
			continue
		}
		seg = append(seg, fmt.Sprintf("%.1f,%.1f", xAt(i, n), yAt(v, lo, hi, chartH)))
	}
	flush()
	// Hover targets with native tooltips.
	for i, v := range vs {
		if v == 0 {
			continue
		}
		fmt.Fprintf(sb, `<circle cx="%.1f" cy="%.1f" r="7" fill="transparent"><title>%s</title></circle>`,
			xAt(i, n), yAt(v, lo, hi, chartH), html.EscapeString(labels[i]))
	}
	fmt.Fprintf(sb, `<text x="%d" y="%.1f">%s</text>`, chartW-labelSpace+4, yAt(hi, lo, hi, chartH)+4, fmtSI(hi))
	fmt.Fprintf(sb, `<text x="%d" y="%.1f">%s</text>`, chartW-labelSpace+4, yAt(lo, lo, hi, chartH)+4, fmtSI(lo))
	sb.WriteString(`</svg>`)
}

// svgStacked draws the breakdown-bucket evolution as stacked areas
// (fractions of makespan, fixed bucket order, 1px surface seams).
func svgStacked(sb *strings.Builder, fracs []trend.BreakdownFrac, labels []string) {
	n := len(fracs)
	if n == 0 {
		return
	}
	fmt.Fprintf(sb, `<svg role="img" viewBox="0 0 %d %d" width="%d" height="%d">`, chartW, stackH, chartW, stackH)
	cum := make([][5]float64, n) // cumulative bucket tops per point
	for i, f := range fracs {
		vals := [4]float64{f.Compute, f.Stall, f.Overhead, f.Idle}
		run := 0.0
		for b, v := range vals {
			run += v
			cum[i][b+1] = run
		}
	}
	for b := 0; b < 4; b++ {
		var top, bot []string
		for i := 0; i < n; i++ {
			x := xAt(i, n)
			top = append(top, fmt.Sprintf("%.1f,%.1f", x, yAt(cum[i][b+1], 0, 1, stackH)))
			bot = append(bot, fmt.Sprintf("%.1f,%.1f", x, yAt(cum[i][b], 0, 1, stackH)))
		}
		for i, j := 0, len(bot)-1; i < j; i, j = i+1, j-1 {
			bot[i], bot[j] = bot[j], bot[i]
		}
		fmt.Fprintf(sb, `<polygon points="%s %s" fill="var(--series-%d)" stroke="var(--surface-1)" stroke-width="1"/>`,
			strings.Join(top, " "), strings.Join(bot, " "), b+1)
	}
	// Hover targets spanning each point's full column.
	colW := float64(chartW-chartPad-labelSpace) / math.Max(float64(n-1), 1)
	for i := 0; i < n; i++ {
		fmt.Fprintf(sb, `<rect x="%.1f" y="0" width="%.1f" height="%d" fill="transparent"><title>%s</title></rect>`,
			xAt(i, n)-colW/2, colW, stackH, html.EscapeString(labels[i]))
	}
	sb.WriteString(`</svg>`)
	sb.WriteString(`<div class="legend">`)
	for b, name := range bucketNames {
		fmt.Fprintf(sb, `<span><span class="sw" style="background:var(--series-%d)"></span>%s</span>`, b+1, name)
	}
	sb.WriteString(`</div>`)
}

// heatCell renders one bench heat-table cell: serial cycles/sec with a
// diverging background (blue = faster than the prior rolling mean,
// red = slower, neutral at no change) and the value always in text.
func heatCell(sb *strings.Builder, bp trend.BenchPoint, deltaPct float64, first bool) {
	styleVar, alpha := "--pos", 0.0
	if !first {
		if deltaPct < 0 {
			styleVar = "--neg"
		}
		alpha = math.Min(math.Abs(deltaPct)/25, 1) * 0.45
	}
	title := fmt.Sprintf("%s/%s %s: %s cycles/sec", bp.Graph, bp.Pattern, bp.At.Format("2006-01-02"), fmtSI(bp.SerialCPS))
	delta := ""
	if !first {
		delta = fmt.Sprintf(" <span style=\"color:var(--text-muted)\">%+.1f%%</span>", deltaPct)
	}
	fmt.Fprintf(sb, `<td class="v" style="background:rgba(var(%s),%.2f)" title="%s">%s%s</td>`,
		styleVar, alpha, html.EscapeString(title), fmtSI(bp.SerialCPS), delta)
}

// renderHTML writes the whole report. generatedAt is stamped verbatim
// (empty in golden tests for reproducibility).
func renderHTML(w io.Writer, m *trend.Model, generatedAt string) error {
	var sb strings.Builder
	src := m.Corpus
	sb.WriteString("<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	sb.WriteString("<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n")
	sb.WriteString("<title>fingerstat — trend report</title>\n<style>" + pageCSS + "</style>\n</head>\n")
	sb.WriteString("<body class=\"viz-root\">\n")
	sb.WriteString("<h1>fingerstat — bench-trend &amp; run-record report</h1>\n")
	if generatedAt != "" {
		fmt.Fprintf(&sb, "<p class=\"meta\">generated %s</p>\n", html.EscapeString(generatedAt))
	}
	fmt.Fprintf(&sb, "<p class=\"src\">sources: %d run log(s) / %d record(s), %d bench report(s) / %d cell(s), %d skip(s) · window %d</p>\n",
		src.RunFiles, src.Records, src.BenchFiles, len(src.Bench), len(src.Skips), m.Window)

	if len(m.Series) > 0 {
		sb.WriteString("<h2>Run-record trends</h2>\n")
		for _, s := range m.Series {
			n := len(s.Points)
			last := s.Points[n-1]
			title := strings.Join([]string{s.Key.Arch, s.Key.Graph, s.Key.Pattern}, " · ")
			if cfg := s.Key.Config(); cfg != "" {
				title += " · " + cfg
			}
			fmt.Fprintf(&sb, "<div class=\"card\">\n<h3>%s</h3>\n", html.EscapeString(title))
			fmt.Fprintf(&sb, "<p class=\"meta\">%d point(s), latest %d cycles", n, last.Cycles)
			if last.CyclesPerSec > 0 {
				fmt.Fprintf(&sb, " at %s cycles/sec", fmtSI(last.CyclesPerSec))
			}
			if last.MissRate > 0 {
				fmt.Fprintf(&sb, ", shared miss rate %.1f%%", 100*last.MissRate)
			}
			if last.DRAMBytes > 0 {
				fmt.Fprintf(&sb, ", DRAM %s B", fmtSI(float64(last.DRAMBytes)))
			}
			sb.WriteString("</p>\n")

			cps, cyc := make([]float64, n), make([]float64, n)
			labels := make([]string, n)
			anyCPS := false
			for i, p := range s.Points {
				cps[i], cyc[i] = p.CyclesPerSec, float64(p.Cycles)
				if p.CyclesPerSec > 0 {
					anyCPS = true
				}
				when := "no timestamp"
				if !p.At.IsZero() {
					when = p.At.Format("2006-01-02 15:04")
					if p.FromMTime {
						when += " (mtime)"
					}
				}
				labels[i] = fmt.Sprintf("%s — %d cycles, %s cycles/sec", when, p.Cycles, fmtSI(p.CyclesPerSec))
			}
			if anyCPS {
				sb.WriteString("<figure>\n<figcaption>cycles/sec (line) with rolling mean ±1σ (band), oldest → newest</figcaption>\n")
				svgLineChart(&sb, cps, s.Roll, true, labels)
			} else {
				sb.WriteString("<figure>\n<figcaption>simulated cycles with rolling mean ±1σ (band), oldest → newest</figcaption>\n")
				svgLineChart(&sb, cyc, s.Roll, false, labels)
			}
			sb.WriteString("\n</figure>\n")

			fracs := make([]trend.BreakdownFrac, n)
			haveFrac := false
			for i, p := range s.Points {
				fracs[i] = p.Frac
				if !p.Frac.Zero() {
					haveFrac = true
				}
				labels[i] = fmt.Sprintf("compute %.0f%% · stall %.0f%% · overhead %.0f%% · idle %.0f%%",
					100*p.Frac.Compute, 100*p.Frac.Stall, 100*p.Frac.Overhead, 100*p.Frac.Idle)
			}
			if haveFrac {
				sb.WriteString("<figure>\n<figcaption>cycle-breakdown evolution (fractions of makespan)</figcaption>\n")
				svgStacked(&sb, fracs, labels)
				sb.WriteString("\n</figure>\n")
			}
			sb.WriteString("</div>\n")
		}
	}

	if len(m.Bench) > 0 {
		sb.WriteString("<h2>Simbench trends</h2>\n")
		maxCols := 0
		for _, b := range m.Bench {
			if len(b.Points) > maxCols {
				maxCols = len(b.Points)
			}
		}
		sb.WriteString("<div class=\"card\">\n<h3>serial simulated cycles/sec per cell</h3>\n")
		sb.WriteString("<p class=\"meta\">each column is one report, oldest → newest; cell shading is the change vs the preceding rolling mean (blue faster, red slower)</p>\n")
		sb.WriteString("<table class=\"heat\">\n<tr><th class=\"rowh\">cell</th>")
		for i := 0; i < maxCols; i++ {
			fmt.Fprintf(&sb, "<th>#%d</th>", i+1)
		}
		sb.WriteString("</tr>\n")
		for _, b := range m.Bench {
			fmt.Fprintf(&sb, "<tr><td class=\"rowh\">%s/%s</td>", html.EscapeString(b.Graph), html.EscapeString(b.Pattern))
			for i := 0; i < maxCols; i++ {
				if i >= len(b.Points) {
					sb.WriteString("<td></td>")
					continue
				}
				delta := 0.0
				if i > 0 && b.Roll[i-1].MeanCPS > 0 {
					delta = (b.Points[i].SerialCPS - b.Roll[i-1].MeanCPS) / b.Roll[i-1].MeanCPS * 100
				}
				heatCell(&sb, b.Points[i], delta, i == 0)
			}
			sb.WriteString("</tr>\n")
		}
		sb.WriteString("</table>\n</div>\n")
	}

	if len(src.Skips) > 0 {
		sb.WriteString("<h2>Skipped inputs</h2>\n<ul class=\"skips\">\n")
		for _, sk := range src.Skips {
			loc := sk.File
			if sk.Line > 0 {
				loc = fmt.Sprintf("%s:%d", sk.File, sk.Line)
			}
			fmt.Fprintf(&sb, "<li>%s — %s</li>\n", html.EscapeString(loc), html.EscapeString(sk.Reason))
		}
		sb.WriteString("</ul>\n")
	}
	sb.WriteString("</body>\n</html>\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
