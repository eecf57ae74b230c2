// Terminal renderer: ANSI tables with sparkline trend glyphs, rolling
// mean ±1σ columns, and breakdown fractions.

package main

import (
	"fmt"
	"io"
	"math"
	"strings"

	"fingers/internal/trend"
)

// sparkGlyphs maps a normalised value to an eighth-block glyph.
var sparkGlyphs = []rune("▁▂▃▄▅▆▇█")

// sparkWidth caps how many trailing points a sparkline shows.
const sparkWidth = 16

// spark renders vs as a sparkline of its last sparkWidth values. Zero
// entries (no data for that point) render as '·'; a flat non-empty
// series renders mid-height.
func spark(vs []float64) string {
	if len(vs) > sparkWidth {
		vs = vs[len(vs)-sparkWidth:]
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vs {
		if v == 0 {
			continue
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	var sb strings.Builder
	for _, v := range vs {
		switch {
		case v == 0:
			sb.WriteRune('·')
		case hi == lo:
			sb.WriteRune(sparkGlyphs[4])
		default:
			idx := int((v - lo) / (hi - lo) * float64(len(sparkGlyphs)-1))
			sb.WriteRune(sparkGlyphs[idx])
		}
	}
	return sb.String()
}

// siFloat renders v with an SI suffix (4.34M, 12.1k) for compact
// cycles/sec columns.
func siFloat(v float64) string {
	switch {
	case v == 0:
		return "-"
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// colorizer gates ANSI escapes on one switch so goldens and pipes stay
// escape-free.
type colorizer struct{ on bool }

func (c colorizer) wrap(code, s string) string {
	if !c.on {
		return s
	}
	return "\x1b[" + code + "m" + s + "\x1b[0m"
}

func (c colorizer) dim(s string) string  { return c.wrap("2", s) }
func (c colorizer) bold(s string) string { return c.wrap("1", s) }

// fracCell renders a breakdown as compute/stall/overhead/idle percent.
func fracCell(f trend.BreakdownFrac) string {
	if f.Zero() {
		return "-"
	}
	return fmt.Sprintf("%2.0f/%2.0f/%2.0f/%2.0f",
		100*f.Compute, 100*f.Stall, 100*f.Overhead, 100*f.Idle)
}

// renderTerm writes the full terminal report for the model.
func renderTerm(w io.Writer, m *trend.Model, c colorizer) {
	src := m.Corpus
	fmt.Fprintf(w, "%s\n", c.bold("fingerstat — bench-trend & run-record observability"))
	fmt.Fprintf(w, "sources: %d run log(s) / %d record(s), %d bench report(s) / %d cell(s), %d skip(s)\n",
		src.RunFiles, src.Records, src.BenchFiles, len(src.Bench), len(src.Skips))
	fmt.Fprintf(w, "window %d; Δ%% is the newest point against the preceding window's mean\n\n", m.Window)

	if len(m.Series) > 0 {
		cfgW := len("CONFIG")
		for _, s := range m.Series {
			cfgW = max(cfgW, len(s.Key.Config()))
		}
		fmt.Fprintln(w, c.bold("RUN-RECORD TRENDS (cycles, cycles/sec, breakdown c/s/o/i %)"))
		fmt.Fprintf(w, "%-10s %-6s %-8s %-*s %3s  %12s %7s  %-*s  %8s  %-*s  %s\n",
			"ARCH", "GRAPH", "PATTERN", cfgW, "CONFIG", "N", "CYCLES", "Δ%", sparkWidth, "TREND",
			"CYC/SEC", sparkWidth, "TREND", "BREAKDOWN")
		for _, s := range m.Series {
			n := len(s.Points)
			last := s.Points[n-1]
			cyc := make([]float64, n)
			cps := make([]float64, n)
			for i, p := range s.Points {
				cyc[i] = float64(p.Cycles)
				cps[i] = p.CyclesPerSec
			}
			delta := "-"
			if n > 1 && s.Roll[n-2].MeanCycles > 0 {
				delta = fmt.Sprintf("%+.1f", (float64(last.Cycles)-s.Roll[n-2].MeanCycles)/s.Roll[n-2].MeanCycles*100)
			}
			partial := ""
			if last.Partial {
				partial = c.dim(" [partial]")
			}
			fmt.Fprintf(w, "%-10s %-6s %-8s %-*s %3d  %12d %7s  %-*s  %8s  %-*s  %s%s\n",
				s.Key.Arch, s.Key.Graph, s.Key.Pattern, cfgW, s.Key.Config(), n,
				last.Cycles, delta, sparkWidth, spark(cyc),
				siFloat(last.CyclesPerSec), sparkWidth, spark(cps),
				fracCell(last.Frac), partial)
		}
		fmt.Fprintln(w)
	}

	if len(m.Bench) > 0 {
		fmt.Fprintln(w, c.bold("SIMBENCH TRENDS (serial simulated cycles/sec)"))
		fmt.Fprintf(w, "%-6s %-8s %3s  %10s %18s  %-*s  %9s %9s\n",
			"GRAPH", "PATTERN", "N", "CPS", "MEAN±σ", sparkWidth, "TREND", "SHARD", "HYB")
		for _, b := range m.Bench {
			n := len(b.Points)
			last := b.Points[n-1]
			roll := b.Roll[n-1]
			cps := make([]float64, n)
			for i, p := range b.Points {
				cps[i] = p.SerialCPS
			}
			// Shard column: the newest point's sharded speedup and shard
			// count (simbench v3); pre-v3 reports leave it blank.
			shard := "-"
			if last.Shards > 1 && last.ShardSpeedup > 0 {
				shard = fmt.Sprintf("%.2fx/%d", last.ShardSpeedup, last.Shards)
			}
			// Hybrid column: the newest point's adaptive set-storage
			// footprint (simbench v4); pre-v4 reports leave it blank.
			hyb := "-"
			if last.HybridBytes > 0 {
				hyb = siFloat(float64(last.HybridBytes)) + "B"
			}
			fmt.Fprintf(w, "%-6s %-8s %3d  %10s %18s  %-*s  %9s %9s\n",
				b.Graph, b.Pattern, n, siFloat(last.SerialCPS),
				fmt.Sprintf("%s±%s", siFloat(roll.MeanCPS), siFloat(roll.SigmaCPS)),
				sparkWidth, spark(cps), shard, hyb)
		}
		fmt.Fprintln(w)
	}

	if len(src.Skips) > 0 {
		fmt.Fprintln(w, c.bold("SKIPPED"))
		for _, sk := range src.Skips {
			loc := sk.File
			if sk.Line > 0 {
				loc = fmt.Sprintf("%s:%d", sk.File, sk.Line)
			}
			fmt.Fprintf(w, "  %s\n", c.dim(fmt.Sprintf("%s — %s", loc, sk.Reason)))
		}
		fmt.Fprintln(w)
	}
}
