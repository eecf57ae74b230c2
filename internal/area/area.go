// Package area models chip area, power, and frequency. The paper obtains
// these numbers from RTL synthesis (Synopsys DC, 28 nm) and CACTI; since
// no hardware flow exists here, the model is seeded with the paper's
// published per-component results (Table 2 and §6.1) and scales them with
// configuration. The evaluation uses area only to fix iso-area
// comparisons — 20 FINGERS PEs vs 40 FlexMiner PEs, and the
// #IUs × s_l = const IU sweep — which these constants reproduce exactly.
package area

import (
	"fmt"
	"strings"

	"fingers/internal/fingers"
)

// MM2 is chip area in square millimetres.
type MM2 float64

// Published 28 nm component constants, derived from Table 2.
const (
	// IUArea is one intersect unit (0.115 mm² / 24).
	IUArea MM2 = 0.115 / 24
	// DividerArea is one task divider (0.069 mm² / 12).
	DividerArea MM2 = 0.069 / 12
	// StreamBufferAreaPerKB scales the two stream buffers (0.214 mm² for
	// 16 kB).
	StreamBufferAreaPerKB MM2 = 0.214 / 16
	// PrivateCacheAreaPerKB scales the PE private cache (0.118 mm² for
	// 32 kB).
	PrivateCacheAreaPerKB MM2 = 0.118 / 32
	// OthersArea is the control logic, NoC interface and data fetchers,
	// conservatively scaled from FlexMiner by the paper.
	OthersArea MM2 = 0.418
)

// Published §6.1 figures.
const (
	// FlexMinerPEArea15nm is the baseline PE at 15 nm.
	FlexMinerPEArea15nm MM2 = 0.18
	// TechScale28to15 converts 28 nm area to 15 nm (the paper reports the
	// 0.934 mm² FINGERS PE as 0.26 mm² at 15 nm).
	TechScale28to15 = 0.26 / 0.934
	// ComputePowerMW and CachePowerMW are one PE's power split.
	ComputePowerMW = 98.5
	CachePowerMW   = 85.6
	// FlexMinerChipPEs is the baseline chip configuration compared
	// against (its largest in the original paper).
	FlexMinerChipPEs = 40
)

// Breakdown itemizes one FINGERS PE, mirroring Table 2.
type Breakdown struct {
	IUs          MM2
	TaskDividers MM2
	StreamBufs   MM2
	PrivateCache MM2
	Others       MM2
}

// Total returns the PE area.
func (b Breakdown) Total() MM2 {
	return b.IUs + b.TaskDividers + b.StreamBufs + b.PrivateCache + b.Others
}

// PEBreakdown computes the component areas of a FINGERS PE configuration
// at 28 nm. Under the Figure 12 iso-area rule (#IUs × s_l constant) the
// stream buffers hold the same total segment storage, so their area is
// configuration-independent.
func PEBreakdown(cfg fingers.Config) Breakdown {
	return Breakdown{
		IUs:          IUArea * MM2(cfg.NumIUs),
		TaskDividers: DividerArea * MM2(cfg.NumDividers),
		StreamBufs:   StreamBufferAreaPerKB * MM2(float64(cfg.StreamBufferBytes)/1024),
		PrivateCache: PrivateCacheAreaPerKB * MM2(float64(cfg.PrivateCacheBytes)/1024),
		Others:       OthersArea,
	}
}

// PEArea15nm returns the FINGERS PE area scaled to the baseline's 15 nm
// node for iso-area chip sizing.
func PEArea15nm(cfg fingers.Config) MM2 {
	return PEBreakdown(cfg).Total() * TechScale28to15
}

// IsoAreaPECount returns the largest FINGERS PE count whose total area
// fits the FlexMiner chip budget of flexPEs baseline PEs. With the default
// configuration and the paper's 40-PE baseline this yields 20 PEs (§6.3
// compares 20 vs 40).
func IsoAreaPECount(cfg fingers.Config, flexPEs int) int {
	budget := FlexMinerPEArea15nm * MM2(flexPEs)
	per := PEArea15nm(cfg)
	n := int(budget / per)
	if n < 1 {
		n = 1
	}
	return n
}

// ChipPowerW estimates total chip power in watts for n PEs.
func ChipPowerW(n int) float64 {
	return float64(n) * (ComputePowerMW + CachePowerMW) / 1000
}

// Table2 renders the Table 2 area breakdown for a configuration.
func Table2(cfg fingers.Config) string {
	b := PEBreakdown(cfg)
	total := b.Total()
	var sb strings.Builder
	row := func(name string, a MM2) {
		fmt.Fprintf(&sb, "%-22s %8.3f mm²  %5.1f%%\n", name, float64(a), 100*float64(a/total))
	}
	fmt.Fprintf(&sb, "Area breakdown of one FINGERS PE (28 nm)\n")
	row(fmt.Sprintf("%d Intersect Units", cfg.NumIUs), b.IUs)
	row(fmt.Sprintf("%d Task Dividers", cfg.NumDividers), b.TaskDividers)
	row("2 Stream Buffers", b.StreamBufs)
	row("Private Cache", b.PrivateCache)
	row("Others", b.Others)
	fmt.Fprintf(&sb, "%-22s %8.3f mm²  100.0%%\n", "PE Total", float64(total))
	fmt.Fprintf(&sb, "PE at 15 nm: %.3f mm² (FlexMiner PE: %.3f mm²)\n",
		float64(PEArea15nm(cfg)), float64(FlexMinerPEArea15nm))
	fmt.Fprintf(&sb, "Iso-area chip: %d FINGERS PEs vs %d FlexMiner PEs\n",
		IsoAreaPECount(cfg, FlexMinerChipPEs), FlexMinerChipPEs)
	fmt.Fprintf(&sb, "PE power: %.1f mW compute + %.1f mW caches; chip ≈ %.1f W at %d PEs\n",
		ComputePowerMW, CachePowerMW, ChipPowerW(IsoAreaPECount(cfg, FlexMinerChipPEs)),
		IsoAreaPECount(cfg, FlexMinerChipPEs))
	return sb.String()
}
