package congest

import (
	"sort"

	"arbods/internal/graph"
)

// Shard layout. Workers own contiguous node ranges twice per round: as
// stepping ranges in the step phase and as *receiver* ranges in the route
// phase (each worker owns its receivers' inboxes exclusively). Both phases
// use the same boundaries, cut by cumulative degree rather than node
// count: a receiver's routing work is its degree (the neighbor list it
// walks), so equal-node shards serialize on whichever shard holds the
// hubs of a skewed-degree graph — a star's center shard does ~all of the
// work while the others idle. Equal-degree shards keep the
// broom/star/lower-bound families balanced, and on regular graphs they
// degrade to exactly the node-count split.

// adaptiveWorkersMin is the node count at which WithWorkers(0) switches
// from the sequential engine to GOMAXPROCS workers. Below it the two
// per-round dispatch barriers (step, route) cost more than the
// parallelism recovers. The crossover is a provisional estimate, set
// where per-round work (≈ degree-sum packet copies) comfortably exceeds
// the few-µs barrier cost; no workers=1 vs 2 sweep across graph sizes has
// measured it yet.
const adaptiveWorkersMin = 1 << 15

// shardBounds cuts [0, n) into `workers` contiguous ranges of near-equal
// cumulative weight, where node v weighs deg(v)+1 (the +1 keeps zero-degree
// nodes from collapsing into one shard and bounds every shard's node
// count). The graph's CSR offsets are a monotone prefix-degree array, so
// each boundary is one binary search: boundary k is the smallest b whose
// cumulative weight AdjOffset(b)+b reaches k/workers of the total.
//
// The result has workers+1 entries, starts at 0, ends at n, and is
// non-decreasing; a shard may be empty when a single hub outweighs a full
// share. Every shard's weight is below total/workers + (Δ+1), the
// one-node overshoot bound.
func shardBounds(g *graph.Graph, workers int) []int32 {
	n := g.N()
	bounds := make([]int32, workers+1)
	total := g.DegreeSum() + n
	for k := 1; k < workers; k++ {
		target := total * k / workers
		b := sort.Search(n, func(b int) bool {
			return g.AdjOffset(b+1)+(b+1) >= target
		})
		bounds[k] = int32(b + 1)
	}
	bounds[workers] = int32(n)
	return bounds
}

// linePad is a full cache line of trailing padding. Shards live in plain
// slices whose backing arrays are not line-aligned, so rounding a struct
// to a 64-byte multiple alone cannot keep neighbors apart; a full trailing
// line guarantees that no cache line holds live fields of two adjacent
// shards at any base alignment. TestShardPadding pins the layouts.
type linePad [64]byte
