package congest

import (
	"sort"

	"arbods/internal/graph"
)

// Shard layout. Workers own contiguous node ranges: each steps its range
// every round, and stepping a node includes pulling its inbox when the
// node may have one. What a round costs depends on the round before it.
//
//   - After a dense round — one that sent more than DegreeSum()/sparseRatio
//     messages — every node walks its whole neighbor list, so a node's work
//     is its degree. Those rounds use boundaries cut by cumulative degree:
//     equal-node shards would serialize on whichever shard holds the hubs of
//     a skewed-degree graph (a star's center shard does ~all of the work
//     while the others idle). On regular graphs the degree cut degrades to
//     exactly the node-count split.
//   - After a sparse or silent round the coordinator has marked that round's
//     receivers, and the light round that follows pulls at marked nodes only.
//     Its work is per node (one Step call each) plus the few marked walks,
//     so it uses the node-count split: the degree cut would hand most nodes
//     to the shards of the low-degree ones. Round 0 follows no round and is
//     light.
//
// Both layouts are built when the graph or worker count changes. Switching
// between them from round to round is safe because a multi-send head names
// the shard that stepped its node and offsets into that shard's slabs,
// whichever range that shard covers next.

// adaptiveWorkersMin is the node count at which WithWorkers(0) switches
// from the sequential engine to GOMAXPROCS workers. Below it the one
// per-round dispatch barrier costs more than the parallelism recovers.
// The crossover is a provisional estimate, set where per-round work
// (≈ degree-sum packet copies) comfortably exceeds the few-µs barrier
// cost; no workers=1 vs 2 sweep across graph sizes has measured it yet.
const adaptiveWorkersMin = 1 << 15

// sparseRatio sets the sparse-round threshold: a round that sends M
// messages with M·sparseRatio ≤ DegreeSum() is sparse, so the round after it
// pulls only at the receivers the mark pass found. The mark pass is serial
// and costs O(M): at 16 it stays under an eighth of a two-worker full walk.
// 8, 16 and 32 were swept on the repo benchmark's two solve workloads
// (2-vCPU host, 3–4 runs each). 32 had the slowest median on both, because
// it sends five Theorem 1.2 rounds of 17k–25k messages (of 6·10⁵ slots)
// down the full walk. 8 and 16 classify every Theorem 1.2 round alike and
// differ in one round of the 10⁶-node Theorem 1.1 solve (668k of 6·10⁶
// slots), where their times were within noise.
const sparseRatio = 16

// nodeBounds cuts [0, n) into `workers` contiguous ranges of near-equal node
// count: the layout of light rounds.
func nodeBounds(n, workers int) []int32 {
	bounds := make([]int32, workers+1)
	for k := range bounds {
		bounds[k] = int32(k * n / workers)
	}
	return bounds
}

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
