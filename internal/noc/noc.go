// Package noc models the network-on-chip connecting the PEs to the
// shared cache (Figure 5). The model is a 2D mesh with XY routing and a
// centrally placed cache node: each PE's requests pay a per-hop latency
// both ways. Queueing inside routers is not modeled — the shared cache
// and DRAM bandwidth models already capture the throughput limits the
// evaluation depends on — so the NoC contributes a deterministic per-PE
// round-trip latency.
package noc

import (
	"fmt"

	"fingers/internal/mem"
)

// Config describes the mesh.
type Config struct {
	// HopLatency is the per-hop router+link traversal cost in cycles.
	HopLatency mem.Cycles
}

// DefaultConfig uses a conventional 2-cycle hop.
func DefaultConfig() Config { return Config{HopLatency: 2} }

// Network is a 2D mesh NoC for a given PE count: PEs occupy the mesh
// nodes of a near-square grid and the shared cache sits at the mesh
// center.
type Network struct {
	cfg            Config
	cols, rows     int
	cacheX, cacheY int
}

// New builds the mesh for numPEs processing elements.
func New(cfg Config, numPEs int) *Network {
	if numPEs < 1 {
		numPEs = 1
	}
	cols := 1
	for cols*cols < numPEs {
		cols++
	}
	rows := (numPEs + cols - 1) / cols
	return &Network{
		cfg:    cfg,
		cols:   cols,
		rows:   rows,
		cacheX: cols / 2,
		cacheY: rows / 2,
	}
}

// position returns PE i's mesh coordinates (row-major placement).
func (n *Network) position(pe int) (x, y int) {
	return pe % n.cols, pe / n.cols
}

// Hops returns the XY-routing hop count between PE pe and the cache node.
func (n *Network) Hops(pe int) int {
	x, y := n.position(pe)
	dx := x - n.cacheX
	if dx < 0 {
		dx = -dx
	}
	dy := y - n.cacheY
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// RoundTrip returns the request+response NoC latency for PE pe: two
// traversals of its hop distance, at least one hop each way (the cache
// port itself).
func (n *Network) RoundTrip(pe int) mem.Cycles {
	h := n.Hops(pe)
	if h < 1 {
		h = 1
	}
	return 2 * mem.Cycles(h) * n.cfg.HopLatency
}

// String describes the topology.
func (n *Network) String() string {
	return fmt.Sprintf("mesh %d×%d, cache at (%d,%d), %d-cycle hops",
		n.cols, n.rows, n.cacheX, n.cacheY, n.cfg.HopLatency)
}

// AccessObserver receives one event per shared-cache access made through
// a Port, attributed to the requesting PE. telemetry.Tracer satisfies it.
type AccessObserver interface {
	// CacheAccess reports an access covering bytes that touched lines
	// cache lines, of which misses missed, issued at at and completing
	// at done (NoC round trip included).
	CacheAccess(pe int, at mem.Cycles, bytes, lines, misses int64, done mem.Cycles)
}

// Port is one PE's connection to the shared cache through the NoC: it
// forwards accesses with the PE's round-trip latency added. It implements
// the memory interface both accelerator PE models consume.
type Port struct {
	Cache *mem.Cache
	Trip  mem.Cycles
	// PE is the owning PE's index, for event attribution.
	PE int
	// Obs, when non-nil, observes every access through this port.
	Obs AccessObserver
}

// NewPort returns PE pe's port onto the shared cache through network n.
func NewPort(n *Network, pe int, cache *mem.Cache) *Port {
	return &Port{Cache: cache, Trip: n.RoundTrip(pe), PE: pe}
}

// Access reads the byte range through the NoC: the request departs at
// now, traverses to the cache, and the completion includes the response
// traversal.
func (p *Port) Access(now mem.Cycles, addr, bytes int64) mem.Cycles {
	if p.Obs == nil {
		return p.Cache.Access(now+p.Trip/2, addr, bytes) + p.Trip/2
	}
	// The event loop interleaves PEs but never preempts mid-access, so
	// the stats delta around this call is exactly this access's lines.
	before := p.Cache.Stats()
	done := p.Cache.Access(now+p.Trip/2, addr, bytes) + p.Trip/2
	after := p.Cache.Stats()
	p.Obs.CacheAccess(p.PE, now, bytes,
		after.LineAccesses-before.LineAccesses, after.LineMisses-before.LineMisses, done)
	return done
}

// Probe reports residency without timing or statistics side effects.
func (p *Port) Probe(addr, bytes int64) bool { return p.Cache.Probe(addr, bytes) }
