package setops

// Skew-aware set operations. The merge kernels in setops.go stream both
// inputs at one element per cycle — exactly what the IU hardware does —
// but the *software* reference miner is free to exploit size skew: when
// one input is much smaller, galloping (exponential-probe binary search)
// finds each element's position in O(log) instead of O(linear). The
// galloping kernels (adaptive.go) keep the software miners honest for
// CPU comparisons on very skewed inputs.

// GallopSkewThreshold is the size ratio beyond which galloping beats the
// linear merge (a conventional cutoff; the exact value is not critical).
// It is exported so adaptive dispatchers above this package can predict
// which kernel the galloping entry points will select.
const GallopSkewThreshold = 16

// gallopSkewThreshold is the internal alias the kernels use.
const gallopSkewThreshold = GallopSkewThreshold

// gallopSearch returns the first index i ≥ lo with s[i] >= v, probing
// exponentially from lo before binary-searching the bracketed range.
func gallopSearch(s []uint32, lo int, v uint32) int {
	if lo >= len(s) || s[lo] >= v {
		return lo
	}
	step := 1
	hi := lo + 1
	for hi < len(s) && s[hi] < v {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > len(s) {
		hi = len(s)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
