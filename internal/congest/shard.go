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

// adaptiveWorkersMin is the node count at which a run without WithWorkers
// switches from the sequential engine to its Runner's CPU share (see
// Runner.bind). Below it the one per-round dispatch barrier costs more
// than the parallelism recovers.
// A sweep on the 2-vCPU host timed two workers against one (7 alternating
// pairs per cell, transient Runners) on forest3, ER (average degree 4) and
// BA (m = 3) graphs with uniform weights, under Theorem 1.1 (α the
// degeneracy, ε = 0.2) and Theorem 1.2 (t = 2):
//
//   - from 16384 nodes up to 131072, two workers won at least 6 of the 7
//     pairs of every cell, taking 0.55–0.88 of one worker's median time;
//   - at 8192, Theorem 1.2 on ER tied (1.01, two workers ahead in 4 of
//     7); every other cell went to two workers (0.66–0.87);
//   - Theorem 1.1 alone crosses over between 1024 nodes (ER 1.18) and
//     2048 (0.80–0.89).
//
// 16384 is the smallest power of two at which two workers won every cell.
// Hosts with more cores pay a wider barrier, which this sweep did not
// measure.
const adaptiveWorkersMin = 1 << 14

// sparseRatio sets the sparse-round threshold: a round that sends M
// messages with M·sparseRatio ≤ DegreeSum() is sparse, so the round after it
// pulls only at the receivers the mark pass found. The mark pass is serial
// and costs O(M): at 8 it stays under a quarter of a two-worker full walk.
// Sweeps on the repo benchmark (2-vCPU host):
//
//   - Before extension nodes slept, 8, 16 and 32 were swept on the two
//     solve workloads (3–4 runs each). 32 was slowest on both: it sends
//     five Theorem 1.2 rounds of 17k–25k messages (of 6·10⁵ slots) down
//     the full walk. 8 and 16 classify every Theorem 1.2 round alike and
//     differ in one round of the 10⁶-node Theorem 1.1 solve (668k of 6·10⁶
//     slots); their times were within noise, and 16 was kept.
//   - Once idle extension nodes slept, making light rounds cheaper, 4, 8
//     and 16 were swept on solve_forest3_1m, solve_ba_skew and the warm
//     Theorem 1.2 solves of BenchmarkWeightedRandomizedServe (six runs
//     each, seeds 1 and 2). 8 read best on every one: median ops/s 0.286
//     against 0.266 at 16 on solve_forest3_1m and 1.02 against 0.92 on
//     solve_ba_skew, and 44–63 ms against 50–75 ms per serving-family
//     solve. 4 was slowest on solve_ba_skew (0.94 ops/s, three runs) and
//     on the ba serving solve.
const sparseRatio = 8

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
