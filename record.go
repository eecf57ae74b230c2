package fingers

import (
	"strings"

	"fingers/internal/graph"
	"fingers/internal/mem"
	"fingers/internal/telemetry"
)

// GraphInfo is the graph summary a RunRecord carries: the Table 1
// statistics plus the hybrid storage view's representation mix.
type GraphInfo = telemetry.GraphInfo

// NewGraphInfo summarizes g under name for run records. It walks the
// CSR and builds the hybrid view if it is not built yet, so callers
// that emit many records for one graph compute it once and reuse it.
func NewGraphInfo(name string, g *Graph) GraphInfo {
	st := graph.ComputeStats(g)
	fp := g.Hybrid().Footprint()
	return GraphInfo{
		Name:        name,
		Vertices:    st.Vertices,
		Edges:       st.Edges,
		AvgDegree:   st.AvgDegree,
		MaxDegree:   st.MaxDegree,
		DenseRows:   fp.DenseRows,
		BitmapRows:  fp.BitmapRows,
		HybridBytes: fp.HybridBytes(),
	}
}

// NewRunRecord builds the fingers.run/v1 record of one Simulate call
// from its report. It is the one record builder every frontend uses:
//
//   - arch is written as its JobSpec name (fingers, flexminer, sisa);
//   - ius is kept only on ArchFingers, the one design with IUs;
//   - the IU rates are set when the report carries IU stats;
//   - sim_shards is the report's shard count when the run was sharded;
//   - cacheBytes 0 is written as the model's default capacity.
//
// The caller stamps the provenance fields it owns (start and wall
// time, run tag, job identity) on the returned record.
func NewRunRecord(arch Arch, experiment string, gi GraphInfo, pattern string, pes, ius int, cacheBytes int64, rep SimReport) RunRecord {
	if arch != ArchFingers {
		ius = 0
	}
	if cacheBytes == 0 {
		cacheBytes = mem.DefaultSharedCacheConfig().CapacityBytes
	}
	res := rep.Result
	rec := RunRecord{
		Schema:           telemetry.RunSchema,
		Arch:             strings.ToLower(arch.String()),
		Experiment:       experiment,
		Graph:            gi,
		Pattern:          pattern,
		PEs:              pes,
		IUs:              ius,
		SharedCacheBytes: cacheBytes,
		Cycles:           res.Cycles,
		Count:            res.Count,
		Tasks:            res.Tasks,
		Partial:          rep.Partial,
		SharedAccesses:   res.SharedCache.LineAccesses,
		SharedMisses:     res.SharedCache.LineMisses,
		SharedMissRate:   res.SharedCache.MissRate(),
		DRAMAccesses:     res.DRAM.Accesses,
		DRAMBytes:        res.DRAM.BytesMoved,
		Breakdown:        res.Breakdown,
		PerPE:            rep.PerPE,
	}
	if rep.IU.TotalCycles > 0 {
		rec.IUActiveRate = rep.IU.ActiveRate()
		rec.IUBalanceRate = rep.IU.BalanceRate()
	}
	if rep.Shards > 1 {
		rec.SimShards = rep.Shards
	}
	return rec
}
