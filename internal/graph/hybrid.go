package graph

import "fingers/internal/setops"

// HybridAdj is the graph's adaptive set-storage view (SISA-style): each
// neighbor list is classified at construction into one of three tiers,
// cheapest representation first —
//
//   - dense: hub vertices (degree ≥ the hub threshold) get a
//     full-universe bitset row, one bit per vertex, so a set operation
//     against the hub's list is one bit probe per element of the other
//     operand: O(|other|) instead of O(|other| + degree).
//   - bitmap: vertices whose list is dense over its own span
//     (setops.ChooseFormat) are costed as a roaring-like compressed
//     bitmap of 64-bit word containers. This tier is a label of the
//     set-centric (SISA) PE cost model, which reads it through
//     HasStoredRow and RowBytes; the host keeps no bitmap, and the
//     software miner reads these lists from the CSR arrays.
//   - array: everything else stays on the CSR's sorted []uint32 —
//     zero added memory.
//
// Classification itself is O(1) per vertex (degree plus first/last
// neighbor give the span); only the per-vertex container counts need a
// scan, and only for bitmap-eligible rows. A HybridAdj is immutable once
// built and safe for concurrent readers.
type HybridAdj struct {
	g *Graph

	tiers []tier
	// dense holds every dense-tier row back to back, words uint64s each;
	// slot[v] is v's row index in it. For a bitmap-tier v, slot[v] is
	// instead its container count.
	dense []uint64
	words int
	slot  []int32

	bitmapRows  int
	bitmapBytes int64
}

// hubMinDegree floors the default hub threshold so small graphs build
// no dense rows at all (the lists are too short for bit probes to
// matter).
const hubMinDegree = 128

// hubFraction sets the default hub threshold to NumVertices/hubFraction:
// a row costs n/8 bytes versus 4·degree bytes for the list, so degree ≥
// n/32 is the break-even point where the bitset is no larger than the
// neighbor list it shadows. The dense tier's memory is then bounded by
// 2E/threshold rows × n/8 bytes = E bytes.
const hubFraction = 32

// bitmapContainerBytes is the modelled cost of one compressed-bitmap
// container: a 4-byte key plus an 8-byte word.
const bitmapContainerBytes = 12

type tier uint8

const (
	tierArray tier = iota
	tierBitmap
	tierDense
)

// NewHybridAdj classifies every vertex of g. Vertices of degree at least
// hubThreshold get dense rows; hubThreshold ≤ 0 selects the default,
// max(128, n/32). A threshold above every degree builds no dense rows,
// and 1 gives every vertex with a neighbor one.
func NewHybridAdj(g *Graph, hubThreshold int) *HybridAdj {
	n := g.NumVertices()
	if hubThreshold <= 0 {
		hubThreshold = max(hubMinDegree, n/hubFraction)
	}
	h := &HybridAdj{
		g:     g,
		tiers: make([]tier, n),
		words: (n + 63) / 64,
		slot:  make([]int32, n),
	}
	hubs := 0
	for v := 0; v < n; v++ {
		if g.Degree(uint32(v)) >= hubThreshold {
			hubs++
		}
	}
	h.dense = make([]uint64, hubs*h.words)
	hubs = 0
	for v := 0; v < n; v++ {
		nv := g.Neighbors(uint32(v))
		if len(nv) == 0 {
			continue
		}
		if len(nv) >= hubThreshold {
			setops.Mark(h.denseRow(int32(hubs)), nv)
			h.slot[v] = int32(hubs)
			h.tiers[v] = tierDense
			hubs++
			continue
		}
		span := nv[len(nv)-1] - nv[0] + 1
		if setops.ChooseFormat(len(nv), span) != setops.FormatBitmap {
			continue
		}
		h.tiers[v] = tierBitmap
		c := int32(1)
		for i := 1; i < len(nv); i++ {
			if nv[i]>>6 != nv[i-1]>>6 {
				c++
			}
		}
		h.slot[v] = c
		h.bitmapRows++
		h.bitmapBytes += bitmapContainerBytes * int64(c)
	}
	return h
}

// Hybrid returns the graph's hybrid view at the default hub threshold,
// building it on first use and caching it for the graph's lifetime.
// Safe for concurrent callers.
func (g *Graph) Hybrid() *HybridAdj {
	g.hybridOnce.Do(func() { g.hybridAdj = NewHybridAdj(g, 0) })
	return g.hybridAdj
}

// DenseRow returns v's full-universe bitset when v is in the dense
// tier, nil otherwise. The returned slice is shared and must not be
// modified.
func (h *HybridAdj) DenseRow(v uint32) []uint64 {
	if h == nil || int(v) >= len(h.tiers) || h.tiers[v] != tierDense {
		return nil
	}
	return h.denseRow(h.slot[v])
}

// denseRow returns row i of the dense slab, capped so appends cannot
// spill into the next row.
func (h *HybridAdj) denseRow(i int32) []uint64 {
	lo := int(i) * h.words
	return h.dense[lo : lo+h.words : lo+h.words]
}

// HasStoredRow reports whether v's list lives in a non-array tier
// (dense row or compressed bitmap) — the membership-probe eligibility
// check of the set-centric PE model.
func (h *HybridAdj) HasStoredRow(v uint32) bool {
	return h != nil && int(v) < len(h.tiers) && h.tiers[v] != tierArray
}

// RowBytes returns the in-memory cost of v's neighbor list in its
// chosen tier: the dense row's words, the bitmap's containers, or the
// CSR slice itself. This is the fetch cost the set-centric PE model
// charges.
func (h *HybridAdj) RowBytes(v uint32) int64 {
	if h == nil || int(v) >= len(h.tiers) {
		return 0
	}
	switch h.tiers[v] {
	case tierDense:
		return h.denseRowBytes()
	case tierBitmap:
		return bitmapContainerBytes * int64(h.slot[v])
	default:
		return h.g.NeighborBytes(v)
	}
}

// denseRowBytes is the size of one dense-tier row: a bit per vertex,
// rounded up to whole words.
func (h *HybridAdj) denseRowBytes() int64 {
	return 8 * int64(h.words)
}

// Footprint is the memory cost of a hybrid view's non-array tiers.
type Footprint struct {
	// DenseRows / DenseBytes cover the hub tier's full-universe rows.
	DenseRows  int
	DenseBytes int64
	// BitmapRows / BitmapBytes cover every bitmap-tier vertex at its
	// exact container cost — the storage the set-centric model charges.
	BitmapRows  int
	BitmapBytes int64
}

// HybridBytes is the total non-array storage the view costs: the
// representation-mix number reported per graph by GraphInfo and per
// cell by simbench v4.
func (f Footprint) HybridBytes() int64 { return f.DenseBytes + f.BitmapBytes }

// Footprint returns the view's memory accounting.
func (h *HybridAdj) Footprint() Footprint {
	if h == nil {
		return Footprint{}
	}
	rows := 0
	if h.words > 0 {
		rows = len(h.dense) / h.words
	}
	return Footprint{
		DenseRows:   rows,
		DenseBytes:  int64(rows) * h.denseRowBytes(),
		BitmapRows:  h.bitmapRows,
		BitmapBytes: h.bitmapBytes,
	}
}
