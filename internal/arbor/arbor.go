// Package arbor implements the centralized arboricity machinery the paper
// leans on: degeneracy (k-core) peeling and Nash–Williams density bounds.
// Orienting every edge toward its endpoint later in the peeling order gives
// out-degree ≤ degeneracy ≤ 2α − 1 (Observation 3.5 is the α version).
//
// The paper uses the orientation only in the analysis; this package exists
// so that uploads, the CLI and the benchmark harness can certify arboricity
// bounds of the graphs they are given.
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
