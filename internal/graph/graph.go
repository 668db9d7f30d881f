// Package graph provides the immutable node-weighted graph substrate used by
// every other package in arbods.
//
// Graphs are simple (no self-loops, no parallel edges) and undirected, with
// positive integer node weights as in the paper (Section 2 assumes integer
// weights bounded by a polynomial in n). The representation is a compact
// CSR-style adjacency structure: neighbor lists are sorted, which gives
// deterministic iteration order — important because the CONGEST simulator
// must be reproducible across runs and across the sequential/parallel
// engines.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// MaxWeight bounds node weights. The paper assumes weights are positive
// integers bounded by n^c; 2^40 comfortably covers every workload in the
// benchmark harness while keeping packing-value arithmetic well inside
// float64's exact-integer range.
const MaxWeight = int64(1) << 40

// Graph is an immutable simple undirected graph with positive integer node
// weights. Construct one with a Builder. The zero value is an empty graph
// with no nodes.
type Graph struct {
	offsets []int32 // len n+1; adjacency of v is adj[offsets[v]:offsets[v+1]]
	adj     []int32 // concatenated sorted neighbor lists
	weights []int64 // len n; all entries in [1, MaxWeight]
	maxDeg  int
}

// Builder accumulates nodes and edges and produces an immutable Graph.
type Builder struct {
	n       int
	edges   [][2]int32
	weights []int64
	err     error
}

// NewBuilder returns a builder for a graph on n nodes (IDs 0..n-1), all with
// weight 1 until SetWeight is called.
func NewBuilder(n int) *Builder {
	b := &Builder{n: n}
	if n < 0 {
		b.err = errors.New("graph: negative node count")
		return b
	}
	b.weights = make([]int64, n)
	for i := range b.weights {
		b.weights[i] = 1
	}
	return b
}

// AddEdge records the undirected edge {u, v}. Self-loops are rejected;
// duplicate edges are deduplicated at Build time. The first error sticks and
// is reported by Build.
func (b *Builder) AddEdge(u, v int) *Builder {
	if b.err != nil {
		return b
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		b.err = fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
		return b
	}
	if u == v {
		b.err = fmt.Errorf("graph: self-loop at node %d", u)
		return b
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
	return b
}

// SetWeight assigns a weight to node v. Weights must be in [1, MaxWeight].
func (b *Builder) SetWeight(v int, w int64) *Builder {
	if b.err != nil {
		return b
	}
	if v < 0 || v >= b.n {
		b.err = fmt.Errorf("graph: SetWeight node %d out of range [0,%d)", v, b.n)
		return b
	}
	if w < 1 || w > MaxWeight {
		b.err = fmt.Errorf("graph: weight %d for node %d outside [1,%d]", w, v, MaxWeight)
		return b
	}
	b.weights[v] = w
	return b
}

// Build finalizes the graph. It returns the first error recorded by AddEdge
// or SetWeight, if any.
//
// Construction is comparison-free: the 2m directed edge slots are ordered
// by (source, target) with two stable counting passes (an LSD radix sort
// over node IDs), so every neighbor list comes out sorted without a
// per-node re-sort, duplicates land adjacent for O(m) deduplication, and
// the whole build runs in O(n + m) time.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := b.n
	m2 := 2 * len(b.edges)

	// Pass 1: stable counting sort of the directed slots by target.
	cnt := make([]int32, n+1)
	for _, e := range b.edges {
		cnt[e[0]]++
		cnt[e[1]]++
	}
	cursor := make([]int32, n+1)
	var sum int32
	for v := 0; v < n; v++ {
		cursor[v] = sum
		sum += cnt[v]
	}
	src := make([]int32, m2)
	dst := make([]int32, m2)
	for _, e := range b.edges {
		c := cursor[e[1]]
		src[c], dst[c] = e[0], e[1]
		cursor[e[1]] = c + 1
		c = cursor[e[0]]
		src[c], dst[c] = e[1], e[0]
		cursor[e[0]] = c + 1
	}

	// Pass 2: stable counting sort by source. Stability preserves the
	// by-target order within each source, so adjDup is sorted by
	// (source, target) and each node's targets are ascending.
	sum = 0
	for v := 0; v < n; v++ {
		cursor[v] = sum
		sum += cnt[v] // undirected: out-slot count == in-slot count per node
	}
	adjDup := make([]int32, m2)
	starts := make([]int32, n+1)
	copy(starts, cursor[:n])
	starts[n] = sum
	for i := 0; i < m2; i++ {
		s := src[i]
		adjDup[cursor[s]] = dst[i]
		cursor[s]++
	}

	// Deduplicate adjacent repeats (parallel edges) per source and build
	// the final CSR, compacting adjDup in place (the write index never
	// overtakes the read index).
	offsets := make([]int32, n+1)
	w := int32(0)
	maxDeg := 0
	for v := 0; v < n; v++ {
		offsets[v] = w
		prev := int32(-1)
		for i := starts[v]; i < starts[v+1]; i++ {
			t := adjDup[i]
			if t == prev {
				continue
			}
			prev = t
			adjDup[w] = t
			w++
		}
		if d := int(w - offsets[v]); d > maxDeg {
			maxDeg = d
		}
	}
	offsets[n] = w
	adj := adjDup[:w:w]
	if int(w) < m2 {
		// Duplicates were dropped: re-allocate at exact size so the graph
		// does not pin the oversized scratch array for its lifetime.
		adj = append([]int32(nil), adjDup[:w]...)
	}

	return &Graph{offsets: offsets, adj: adj, weights: b.weights, maxDeg: maxDeg}, nil
}

// MustBuild is Build that panics on error; intended for tests and examples
// with hard-coded inputs.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.weights) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// DegreeSum returns Σ_v deg(v) = 2·M(), the number of directed edge slots.
// Run-scoped allocators (the CONGEST simulator's arena) use it to size
// their backing arrays in one allocation.
func (g *Graph) DegreeSum() int { return len(g.adj) }

// MaxDegree returns Δ, the maximum degree (0 for an empty graph).
func (g *Graph) MaxDegree() int { return g.maxDeg }

// AdjOffset returns the CSR offset of node v's adjacency — equivalently,
// Σ_{u<v} deg(u), the cumulative degree of the nodes before v. Valid for
// v in [0, N()]; AdjOffset(N()) == DegreeSum(). The offsets are a
// monotone prefix-degree array, so work partitioners can binary-search
// them to cut the node range into pieces of near-equal total degree
// instead of equal node count.
func (g *Graph) AdjOffset(v int) int { return int(g.offsets[v]) }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

func (g *Graph) neighborSlice(v int) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// Neighbors returns the sorted neighbor list of v as a read-only view into
// the graph's internal storage. Callers must not modify the returned slice.
func (g *Graph) Neighbors(v int) []int32 {
	return g.neighborSlice(v)
}

// HasEdge reports whether {u, v} is an edge, in O(log deg(u)) time.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() || u == v {
		return false
	}
	nb := g.neighborSlice(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= int32(v) })
	return i < len(nb) && nb[i] == int32(v)
}

// Weight returns the weight of node v.
func (g *Graph) Weight(v int) int64 { return g.weights[v] }

// TotalWeight returns the sum of all node weights.
func (g *Graph) TotalWeight() int64 {
	var total int64
	for _, w := range g.weights {
		total += w
	}
	return total
}

// SetWeights returns a copy of the graph with the given weight vector. It
// returns an error if the vector length or any weight is invalid. The
// adjacency structure is shared (it is immutable), so this is cheap.
func (g *Graph) SetWeights(w []int64) (*Graph, error) {
	if len(w) != g.N() {
		return nil, fmt.Errorf("graph: SetWeights got %d weights for %d nodes", len(w), g.N())
	}
	for v, wv := range w {
		if wv < 1 || wv > MaxWeight {
			return nil, fmt.Errorf("graph: weight %d for node %d outside [1,%d]", wv, v, MaxWeight)
		}
	}
	clone := *g
	clone.weights = make([]int64, len(w))
	copy(clone.weights, w)
	return &clone, nil
}

// ClosedNeighborhoodMinWeight returns τ_v = min_{u ∈ N+(v)} w_u together
// with the smallest-ID node attaining it. This is the quantity the weighted
// algorithms (Section 4) use to initialize packing values and to complete
// partial dominating sets.
func (g *Graph) ClosedNeighborhoodMinWeight(v int) (tau int64, argmin int) {
	tau, argmin = g.weights[v], v
	for _, u := range g.neighborSlice(v) {
		if w := g.weights[u]; w < tau || (w == tau && int(u) < argmin) {
			tau, argmin = w, int(u)
		}
	}
	return tau, argmin
}

// Unweighted reports whether every node has weight exactly 1.
func (g *Graph) Unweighted() bool {
	for _, w := range g.weights {
		if w != 1 {
			return false
		}
	}
	return true
}

// Edges appends all undirected edges (u < v) to dst and returns it.
func (g *Graph) Edges(dst [][2]int) [][2]int {
	for v := 0; v < g.N(); v++ {
		for _, u := range g.neighborSlice(v) {
			if int(u) > v {
				dst = append(dst, [2]int{v, int(u)})
			}
		}
	}
	return dst
}

// IsForest reports whether the graph is acyclic.
func (g *Graph) IsForest() bool {
	// A graph is a forest iff every component has exactly |nodes|-1 edges.
	n := g.N()
	seen := make([]bool, n)
	var stack []int
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		stack = append(stack[:0], s)
		nodes, degSum := 0, 0
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nodes++
			degSum += g.Degree(v)
			for _, u := range g.neighborSlice(v) {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, int(u))
				}
			}
		}
		if degSum/2 != nodes-1 {
			return false
		}
	}
	return true
}

// String returns a short human-readable summary, e.g. "graph(n=100 m=250 Δ=7)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d m=%d Δ=%d)", g.N(), g.M(), g.MaxDegree())
}
