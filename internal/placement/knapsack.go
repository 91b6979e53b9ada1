// Package placement implements Unimem's data placement decision (§3.1.3):
// per-object weights w = BFT - COST - extraCOST (Eq. 5), the 0-1 knapsack
// over DRAM capacity solved with dynamic programming, the two search
// strategies — phase-local and cross-phase global — the construction of
// the proactive migration schedule the helper thread executes, and the
// multiple-choice knapsack (SolveTiered) that generalizes placement to
// N-tier hierarchies: each chunk assigned exactly one tier under per-tier
// capacities.
//
// Inputs arrive as per-phase benefit slices (the Eq. 2/3 estimates of how
// much faster a phase runs with a chunk DRAM-resident) and movement costs
// (Eq. 4: copy time minus the overlap the helper thread can hide); the
// package is pure — callers supply both through Input callbacks. The
// two-tier searches name chunks by name rank: chunk i is the i-th name in
// sort.Strings order, so every loop over chunks — knapsack item order,
// schedule order, float sums, tie-breaks — runs in name order and
// decisions are deterministic.
package placement

// Item is one knapsack candidate: a chunk with its size and Eq. 5 weight.
type Item struct {
	Chunk    string
	Size     int64
	WeightNS float64
}

// knapGranularity is the size quantum of the DP table. 1 MiB keeps the
// table small (DRAM capacities are hundreds of MiB) while being much finer
// than any target object.
const knapGranularity = 1 << 20

// Knapsack solves the 0-1 knapsack: choose a subset of items maximizing
// total weight with total size <= capacity. Items with non-positive weight
// are never chosen (placing them has no predicted value). It returns the
// indices of chosen items (ascending) and the total weight.
func Knapsack(items []Item, capacity int64) ([]int, float64) {
	if capacity <= 0 || len(items) == 0 {
		return nil, 0
	}
	cap := int(capacity / knapGranularity)
	if cap == 0 {
		return nil, 0
	}
	type cand struct {
		idx  int
		size int // in granules, rounded up
		w    float64
	}
	cands := make([]cand, 0, len(items))
	total := 0
	for i, it := range items {
		if it.WeightNS <= 0 || it.Size <= 0 {
			continue
		}
		sz := int((it.Size + knapGranularity - 1) / knapGranularity)
		if sz > cap {
			continue
		}
		cands = append(cands, cand{idx: i, size: sz, w: it.WeightNS})
		total += sz
	}
	if len(cands) == 0 {
		return nil, 0
	}
	// After candidate k every column at or past the first k sizes' sum
	// holds the same value and decision, so columns past the candidates'
	// total size repeat the last one. Stopping the table there is exact,
	// and it keeps small candidates from paying for a wide capacity.
	width := min(cap, total) + 1
	// dp[c] is the best weight using capacity c; take[k][c] records whether
	// candidate k is chosen at capacity c on the optimal path.
	dp := make([]float64, width)
	take := make([]bool, len(cands)*width) // row k is candidate k
	for k, cd := range cands {
		row := take[k*width : (k+1)*width]
		for c := width - 1; c >= cd.size; c-- {
			if v := dp[c-cd.size] + cd.w; v > dp[c] {
				dp[c] = v
				row[c] = true
			}
		}
	}
	// Reconstruct.
	chosen := make([]int, 0, len(cands))
	c := width - 1
	for k := len(cands) - 1; k >= 0; k-- {
		if take[k*width+c] {
			chosen = append(chosen, cands[k].idx)
			c -= cands[k].size
		}
	}
	// Reverse into ascending index order.
	for i, j := 0, len(chosen)-1; i < j; i, j = i+1, j-1 {
		chosen[i], chosen[j] = chosen[j], chosen[i]
	}
	return chosen, dp[width-1]
}
