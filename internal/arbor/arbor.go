// Package arbor implements the centralized arboricity machinery the paper
// leans on: degeneracy (k-core) peeling, low out-degree orientations
// (Observation 3.5: a graph with arboricity α can be oriented with
// out-degree ≤ α), Nash–Williams density bounds, and pseudoforest
// decompositions (footnote 2: the algorithms work for any graph orientable
// with out-degree ≤ α, i.e. graphs decomposable into α pseudoforests).
//
// The paper uses the orientation only in the analysis; this package exists
// so that the test suite and the benchmark harness can certify arboricity
// bounds of generated workloads and verify the analysis-side invariants
// (e.g. "a node is an in-neighbor of at most α nodes").
package arbor

import (
	"arbods/internal/graph"
)

// Degeneracy computes the degeneracy d of g and a peeling order: the order
// the bin-sort peel removes nodes in. It is sorted by core number, and
// every node has at most its core number, so at most d, neighbors that
// appear later in it. It is not, in general, the order that repeatedly
// removing a minimum-degree node gives: the peel leaves a neighbor's
// degree alone once it is down to the core number being peeled.
//
// Degeneracy brackets arboricity: α ≤ d ≤ 2α − 1, so d is the standard
// certified upper bound for α when the generator does not already know one.
// Runs in O(n + m) time.
func Degeneracy(g *graph.Graph) (order []int, degeneracy int) {
	vert, _, d := peel(g)
	order = make([]int, len(vert))
	for i, v := range vert {
		order[i] = int(v)
	}
	return order, d
}

// DegeneracyOf returns the degeneracy d of g alone: Degeneracy's d without
// the n-entry order, for callers that need only the bound.
func DegeneracyOf(g *graph.Graph) int {
	_, _, d := peel(g)
	return d
}

// peel is the Batagelj–Zaversnik bin-sort peel (V. Batagelj, M. Zaversnik,
// "An O(m) Algorithm for Cores Decomposition of Networks", 2003) on one
// int32 buffer. vert lists the nodes in peeling order and pos is its
// inverse (vert[pos[v]] == v); d is the degeneracy.
//
// vert is kept sorted by current degree, bin[k] marking where degree k
// starts. Peeling vert[i] moves each neighbor u of higher degree to the
// front of its bin by one swap and shrinks the bin by one, which is
// u's degree dropping by one. A neighbor at the peeled node's own degree
// keeps it, so deg[v] is v's core number once v is peeled, and it bounds
// the neighbors v has later in vert.
func peel(g *graph.Graph) (vert, pos []int32, d int) {
	n := g.N()
	buf := make([]int32, 3*n+g.MaxDegree()+1)
	deg, bin := buf[:n:n], buf[3*n:]
	pos, vert = buf[n:2*n:2*n], buf[2*n:3*n:3*n]
	for v := range n {
		deg[v] = int32(g.Degree(v))
		bin[deg[v]]++
	}
	start := int32(0)
	for k, c := range bin {
		bin[k] = start
		start += c
	}
	for v := range n {
		p := bin[deg[v]]
		pos[v], vert[p] = p, int32(v)
		bin[deg[v]]++
	}
	copy(bin[1:], bin)
	bin[0] = 0
	// The loop reorders vert past the node it is at, and range reads each
	// element only when it gets there.
	for _, v := range vert {
		dv := deg[v]
		for _, u := range g.Neighbors(int(v)) {
			du := deg[u]
			if du <= dv {
				continue
			}
			pu, pw := pos[u], bin[du]
			if w := vert[pw]; w != u {
				vert[pu], vert[pw] = w, u
				pos[w], pos[u] = pu, pw
			}
			bin[du]++
			deg[u] = du - 1
		}
	}
	if n > 0 {
		d = int(deg[vert[n-1]])
	}
	return vert, pos, d
}

// Orientation is an assignment of a direction to every edge of a graph,
// stored as a CSR: the out-neighbors of v are out[off[v]:off[v+1]].
type Orientation struct {
	off []int32
	out []int32
}

// OrientByOrder orients every edge of g from the endpoint that appears
// earlier in order to the one that appears later. With a degeneracy peeling
// order this yields an acyclic orientation with out-degree ≤ degeneracy.
func OrientByOrder(g *graph.Graph, order []int) *Orientation {
	pos := make([]int32, g.N())
	for i, v := range order {
		pos[v] = int32(i)
	}
	return orient(g, pos)
}

// orient orients each edge of g toward its endpoint with the larger pos.
// At most one direction of an edge passes, so out never outgrows M.
func orient(g *graph.Graph, pos []int32) *Orientation {
	off := make([]int32, g.N()+1)
	out := make([]int32, 0, g.M())
	for v := range g.N() {
		for _, u := range g.Neighbors(v) {
			if pos[v] < pos[u] {
				out = append(out, u)
			}
		}
		off[v+1] = int32(len(out))
	}
	return &Orientation{off: off, out: out}
}

// GreedyOrientation returns the degeneracy-order orientation of g: each
// edge points to its endpoint later in Degeneracy's order, so out-degree
// ≤ degeneracy(g) ≤ 2α(g) − 1.
func GreedyOrientation(g *graph.Graph) *Orientation {
	_, pos, _ := peel(g)
	return orient(g, pos)
}

// n returns the number of nodes o orients.
func (o *Orientation) n() int { return max(len(o.off)-1, 0) }

// Out returns the out-neighbors of v. The slice is a read-only view.
func (o *Orientation) Out(v int) []int32 { return o.out[o.off[v]:o.off[v+1]:o.off[v+1]] }

// OutDegree returns the out-degree of v.
func (o *Orientation) OutDegree(v int) int { return int(o.off[v+1] - o.off[v]) }

// MaxOutDegree returns the maximum out-degree over all nodes.
func (o *Orientation) MaxOutDegree() int {
	k := 0
	for v := range o.n() {
		k = max(k, o.OutDegree(v))
	}
	return k
}

// InDegrees returns the in-degree of every node.
func (o *Orientation) InDegrees() []int {
	in := make([]int, o.n())
	for _, u := range o.out {
		in[u]++
	}
	return in
}

// Valid reports whether o orients every edge of g exactly once and nothing
// else (i.e. it is a true orientation of g).
func (o *Orientation) Valid(g *graph.Graph) bool {
	if o.n() != g.N() {
		return false
	}
	directed := 0
	for v := range o.n() {
		for _, u := range o.Out(v) {
			if !g.HasEdge(v, int(u)) {
				return false
			}
			directed++
		}
	}
	if directed != g.M() {
		return false
	}
	// Every edge directed exactly once: counts match and each directed edge
	// is a real edge, so it remains to rule out {u,v} oriented both ways.
	seen := make(map[[2]int32]bool, directed)
	for v := range o.n() {
		for _, u := range o.Out(v) {
			a, b := int32(v), u
			if a > b {
				a, b = b, a
			}
			key := [2]int32{a, b}
			if seen[key] {
				return false
			}
			seen[key] = true
		}
	}
	return true
}

// Bounds returns certified lower and upper bounds for the arboricity of g:
//
//	lo = max(⌈density of the densest peeling suffix⌉, 1 if m ≥ 1)
//	hi = degeneracy(g)  (with hi ≥ lo enforced)
//
// The lower bound instantiates Nash–Williams: any subgraph S with n_S ≥ 2
// forces α ≥ ⌈m_S/(n_S−1)⌉; the suffixes of the degeneracy peeling order
// include the densest k-cores, which is where that bound is strongest.
func Bounds(g *graph.Graph) (lo, hi int) {
	vert, pos, degen := peel(g)
	hi = degen
	if g.M() == 0 {
		return 0, 0
	}
	lo = 1
	// Walk the peeling order backwards, maintaining the induced suffix
	// subgraph's edge count: a neighbor is in the suffix vert[i:] when
	// its position is past i.
	n := g.N()
	edges := 0
	for i := n - 1; i >= 0; i-- {
		for _, u := range g.Neighbors(int(vert[i])) {
			if pos[u] > int32(i) {
				edges++
			}
		}
		if nodes := n - i; nodes >= 2 {
			d := (edges + nodes - 2) / (nodes - 1) // ⌈edges/(nodes-1)⌉
			if d > lo {
				lo = d
			}
		}
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Pseudoforests partitions the edges of g into MaxOutDegree(o) pseudoforests
// using the orientation o: the i-th pseudoforest takes the i-th out-edge of
// every node. Each part has maximum out-degree 1 under o, hence every
// connected component contains at most one cycle (footnote 2 of the paper).
func Pseudoforests(g *graph.Graph, o *Orientation) [][][2]int {
	k := o.MaxOutDegree()
	parts := make([][][2]int, k)
	for v := range o.n() {
		for i, u := range o.Out(v) {
			parts[i] = append(parts[i], [2]int{v, int(u)})
		}
	}
	return parts
}

// IsPseudoforest reports whether the given edge set on n nodes is a
// pseudoforest: every connected component has at most as many edges as
// nodes (≤ one cycle per component).
func IsPseudoforest(n int, edges [][2]int) bool {
	parent := make([]int, n)
	compEdges := make([]int, n)
	compNodes := make([]int, n)
	for i := range parent {
		parent[i] = i
		compNodes[i] = 1
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		if e[0] < 0 || e[1] < 0 || e[0] >= n || e[1] >= n {
			return false
		}
		a, b := find(e[0]), find(e[1])
		if a == b {
			compEdges[a]++
		} else {
			parent[a] = b
			compEdges[b] += compEdges[a] + 1
			compNodes[b] += compNodes[a]
		}
	}
	for v := 0; v < n; v++ {
		if find(v) == v && compEdges[v] > compNodes[v] {
			return false
		}
	}
	return true
}
