// Package baseline implements the comparison algorithms the paper's §1.1
// table measures against:
//
//   - the classic centralized greedy (ln(Δ+1)-approximation, [Joh74]),
//   - an exact branch-and-bound solver for small instances (ground truth),
//   - a Lenzen–Wattenhofer-style deterministic bucket greedy in O(log Δ)
//     CONGEST rounds (O(α·log Δ)-approximation on arboricity-α graphs,
//     [LW10]),
//   - a local-randomized-greedy (LRG) distributed algorithm in the style of
//     Jia–Rajaraman–Suel / Kuhn–Wattenhofer (logarithmic approximation in
//     expectation),
//   - the trivial take-all baseline.
//
// MSW21 and the full KMW06 LP machinery are represented analytically in the
// benchmark tables (the E1 table of EXPERIMENTS.md).
package baseline

import (
	"container/heap"

	"arbods/internal/graph"
)

// GreedyResult is the outcome of a centralized baseline.
type GreedyResult struct {
	DS     []int
	Weight int64
}

// Greedy runs the classic centralized greedy for weighted dominating set:
// repeatedly pick the node minimizing weight per newly covered node. This is
// the ln(Δ+1)-approximation the paper cites from [Joh74]; it serves as the
// quality yardstick for the distributed algorithms.
func Greedy(g *graph.Graph) GreedyResult {
	n := g.N()
	covered := make([]bool, n)
	inDS := make([]bool, n)
	span := make([]int, n) // # uncovered nodes in N+(v)
	for v := 0; v < n; v++ {
		span[v] = g.Degree(v) + 1
	}
	// Lazy max-heap keyed by span/weight ratio; entries are re-validated
	// against the current span at pop time.
	h := &ratioHeap{}
	for v := 0; v < n; v++ {
		heap.Push(h, ratioEntry{v: v, span: span[v], w: g.Weight(v)})
	}
	var res GreedyResult
	remaining := n
	for remaining > 0 && h.Len() > 0 {
		e := heap.Pop(h).(ratioEntry)
		if inDS[e.v] || span[e.v] == 0 {
			continue
		}
		if e.span != span[e.v] {
			e.span = span[e.v]
			heap.Push(h, e)
			continue
		}
		inDS[e.v] = true
		res.DS = append(res.DS, e.v)
		res.Weight += g.Weight(e.v)
		cover := func(u int) {
			if covered[u] {
				return
			}
			covered[u] = true
			remaining--
			span[u]--
			for _, t := range g.Neighbors(u) {
				span[t]--
			}
		}
		cover(e.v)
		for _, u := range g.Neighbors(e.v) {
			cover(int(u))
		}
	}
	sortInts(res.DS)
	return res
}

type ratioEntry struct {
	v    int
	span int
	w    int64
}

type ratioHeap []ratioEntry

func (h ratioHeap) Len() int { return len(h) }
func (h ratioHeap) Less(i, j int) bool {
	// Compare span_i/w_i > span_j/w_j without division:
	// span_i·w_j > span_j·w_i. Ties break toward lower ID for determinism.
	a := int64(h[i].span) * h[j].w
	b := int64(h[j].span) * h[i].w
	if a != b {
		return a > b
	}
	return h[i].v < h[j].v
}
func (h ratioHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *ratioHeap) Push(x any)   { *h = append(*h, x.(ratioEntry)) }
func (h *ratioHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	*h = old[:n-1]
	return popped
}

// TakeAll returns the trivial dominating set of all nodes.
func TakeAll(g *graph.Graph) GreedyResult {
	res := GreedyResult{DS: make([]int, g.N()), Weight: g.TotalWeight()}
	for v := range res.DS {
		res.DS[v] = v
	}
	return res
}

func sortInts(a []int) {
	// Insertion sort is fine: DS lists are produced roughly in order.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
