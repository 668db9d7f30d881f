// Package gen generates the workload graphs for tests, examples, and the
// benchmark harness.
//
// Every generator returns a Result that records the arboricity bound the
// construction guarantees (0 when the construction gives none); the paper's
// algorithms take α as a known parameter, and the harness feeds them either
// this construction bound or the degeneracy bound from package arbor.
//
// The families mirror the graph classes the paper motivates: forests
// (arboricity 1, Appendix A), unions of k forests (arboricity ≤ k by
// definition), planar grids (arboricity ≤ 3, §1.1), preferential-attachment
// graphs standing in for social networks and the web graph (§1.1 claims
// these are believed to have low arboricity), plus general graphs
// (Erdős–Rényi, bipartite, geometric) for Theorem 1.3.
package gen

import (
	"fmt"
	"math"

	"arbods/internal/graph"
	"arbods/internal/rng"
)

// Result is a generated graph plus the metadata the harness needs.
type Result struct {
	G *graph.Graph
	// Name identifies the instance in benchmark tables, e.g. "forest2(n=1000)".
	Name string
	// ArboricityBound is an upper bound on α guaranteed by the construction,
	// or 0 if the construction guarantees none.
	ArboricityBound int
}

// Path returns the path graph on n nodes (arboricity 1).
func Path(n int) Result {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return Result{G: b.MustBuild(), Name: fmt.Sprintf("path(n=%d)", n), ArboricityBound: 1}
}

// Cycle returns the cycle on n ≥ 3 nodes (arboricity 2; it is a single
// pseudoforest, so footnote 2 of the paper applies with α = 1 as well).
func Cycle(n int) Result {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	return Result{G: b.MustBuild(), Name: fmt.Sprintf("cycle(n=%d)", n), ArboricityBound: 2}
}

// Star returns the star with one center (node 0) and n−1 leaves (arboricity 1).
func Star(n int) Result {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return Result{G: b.MustBuild(), Name: fmt.Sprintf("star(n=%d)", n), ArboricityBound: 1}
}

// Complete returns K_n (arboricity ⌈n/2⌉).
func Complete(n int) Result {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return Result{G: b.MustBuild(), Name: fmt.Sprintf("complete(n=%d)", n), ArboricityBound: (n + 1) / 2}
}

// RandomTree returns a uniform-attachment random tree: node v ≥ 1 attaches
// to a uniformly random node in [0, v). Arboricity 1.
func RandomTree(n int, seed uint64) Result {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, r.Intn(v))
	}
	return Result{G: b.MustBuild(), Name: fmt.Sprintf("tree(n=%d)", n), ArboricityBound: 1}
}

// BalancedTree returns the complete k-ary tree with the given depth
// (depth 0 is a single node). Arboricity 1.
func BalancedTree(k, depth int) Result {
	if k < 1 {
		k = 1
	}
	// Number of nodes: 1 + k + k^2 + ... + k^depth.
	n := 1
	level := 1
	for d := 0; d < depth; d++ {
		level *= k
		n += level
	}
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, (v-1)/k)
	}
	return Result{G: b.MustBuild(), Name: fmt.Sprintf("ktree(k=%d,d=%d)", k, depth), ArboricityBound: 1}
}

// Caterpillar returns a caterpillar tree: a spine path of the given length
// with legs leaves attached to every spine node. Arboricity 1. Caterpillars
// are the adversarial case for the Appendix A tree algorithm (every spine
// node is internal).
func Caterpillar(spine, legs int) Result {
	n := spine * (1 + legs)
	b := graph.NewBuilder(n)
	for s := 0; s+1 < spine; s++ {
		b.AddEdge(s, s+1)
	}
	next := spine
	for s := 0; s < spine; s++ {
		for l := 0; l < legs; l++ {
			b.AddEdge(s, next)
			next++
		}
	}
	return Result{G: b.MustBuild(), Name: fmt.Sprintf("caterpillar(s=%d,l=%d)", spine, legs), ArboricityBound: 1}
}

// Broom returns a "broom" tree: a path of pathLen nodes with leaves extra
// leaves attached to the last path node. Brooms fix arboricity at 1 while
// the maximum degree is leaves+1 — the knob the round-complexity sweep of
// Theorem 1.1 turns (rounds must grow like log(Δ/α)).
func Broom(pathLen, leaves int) Result {
	if pathLen < 1 {
		pathLen = 1
	}
	n := pathLen + leaves
	b := graph.NewBuilder(n)
	for v := 0; v+1 < pathLen; v++ {
		b.AddEdge(v, v+1)
	}
	for l := 0; l < leaves; l++ {
		b.AddEdge(pathLen-1, pathLen+l)
	}
	return Result{G: b.MustBuild(), Name: fmt.Sprintf("broom(p=%d,l=%d)", pathLen, leaves), ArboricityBound: 1}
}

// ForestUnion returns the union of k independent uniform-attachment random
// forests on the same n nodes, with node labels shuffled per forest.
// Arboricity ≤ k by the Nash–Williams definition. This is the canonical
// "α-bounded by construction" workload of the harness.
func ForestUnion(n, k int, seed uint64) Result {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	perm := make([]int, n) // scratch reused across the k forests
	for f := 0; f < k; f++ {
		r.PermInto(perm)
		for i := 1; i < n; i++ {
			b.AddEdge(perm[i], perm[r.Intn(i)])
		}
	}
	return Result{G: b.MustBuild(), Name: fmt.Sprintf("forest%d(n=%d)", k, n), ArboricityBound: k}
}

// PseudoforestUnion returns the union of k random functional graphs: in
// each part every node points at a uniformly random other node, so each
// connected component of a part has at most one cycle — a pseudoforest.
// The union is decomposable into k pseudoforests, which by footnote 2 of
// the paper is exactly the graph class (orientable with out-degree ≤ k)
// the algorithms handle with α = k, even though the true arboricity can be
// as large as 2k.
func PseudoforestUnion(n, k int, seed uint64) Result {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for part := 0; part < k; part++ {
		for v := 0; v < n; v++ {
			u := r.Intn(n - 1)
			if u >= v {
				u++
			}
			b.AddEdge(v, u)
		}
	}
	return Result{G: b.MustBuild(), Name: fmt.Sprintf("pseudoforest%d(n=%d)", k, n), ArboricityBound: 2 * k}
}

// Grid returns the rows×cols grid graph. Grids are planar and bipartite, so
// every subgraph has m_S ≤ 2n_S − 4; Nash–Williams gives arboricity ≤ 2.
func Grid(rows, cols int) Result {
	n := rows * cols
	b := graph.NewBuilder(n)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	bound := 2
	if rows == 1 || cols == 1 {
		bound = 1
	}
	return Result{G: b.MustBuild(), Name: fmt.Sprintf("grid(%dx%d)", rows, cols), ArboricityBound: bound}
}

// Torus returns the rows×cols torus (grid with wraparound). m = 2n, so
// arboricity ≤ 3 by Nash–Williams on the whole graph; rows, cols ≥ 3.
func Torus(rows, cols int) Result {
	n := rows * cols
	b := graph.NewBuilder(n)
	id := func(r, c int) int { return ((r+rows)%rows)*cols + (c+cols)%cols }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(id(r, c), id(r, c+1))
			b.AddEdge(id(r, c), id(r+1, c))
		}
	}
	return Result{G: b.MustBuild(), Name: fmt.Sprintf("torus(%dx%d)", rows, cols), ArboricityBound: 3}
}

// ErdosRenyi returns G(n, p). No construction bound on arboricity.
func ErdosRenyi(n int, p float64, seed uint64) Result {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	// Geometric skipping gives O(n + m) expected time.
	if p > 0 && p < 1 {
		v, u := 1, -1
		for v < n {
			// Skip ahead by a geometric number of candidate pairs.
			skip := geometricSkip(r, p)
			u += 1 + skip
			for u >= v && v < n {
				u -= v
				v++
			}
			if v < n {
				b.AddEdge(u, v)
			}
		}
	} else if p >= 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				b.AddEdge(u, v)
			}
		}
	}
	return Result{G: b.MustBuild(), Name: fmt.Sprintf("er(n=%d,p=%g)", n, p)}
}

// geometricSkip samples the number of failures before the next success of a
// Bernoulli(p) sequence, i.e. a Geometric(p) variate starting at 0.
func geometricSkip(r *rng.Stream, p float64) int {
	// Inverse transform: floor(ln(U)/ln(1-p)).
	u := r.Float64()
	if u <= 0 {
		return 0
	}
	// ln(1-p) < 0 for p in (0,1).
	k := int(math.Log(u) / math.Log(1-p))
	if k < 0 {
		k = 0
	}
	return k
}

// BarabasiAlbert returns an n-node preferential-attachment graph where each
// arriving node attaches to attach distinct existing nodes chosen
// proportionally to degree. In arrival order every node (including the seed
// clique's) has at most attach edges to earlier nodes, so the graph is
// attach-degenerate and arboricity ≤ attach.
func BarabasiAlbert(n, attach int, seed uint64) Result {
	if attach < 1 {
		attach = 1
	}
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	// No node has more than n earlier neighbors, so an attach above n
	// sizes no buffer further.
	room := min(attach, n)
	// endpoints holds every edge endpoint once; sampling uniformly from it
	// is sampling proportional to degree.
	endpoints := make([]int, 0, 2*n*room)
	start := attach + 1
	if start > n {
		start = n
	}
	// Seed clique on the first start nodes.
	for u := 0; u < start; u++ {
		for v := u + 1; v < start; v++ {
			b.AddEdge(u, v)
			endpoints = append(endpoints, u, v)
		}
	}
	chosen := make(map[int]bool, room)
	picked := make([]int, 0, room)
	for v := start; v < n; v++ {
		for k := range chosen {
			delete(chosen, k)
		}
		picked = picked[:0]
		for len(picked) < attach {
			var u int
			if len(endpoints) == 0 {
				u = r.Intn(v)
			} else {
				u = endpoints[r.Intn(len(endpoints))]
			}
			if u != v && !chosen[u] {
				chosen[u] = true
				// Keep insertion order: iterating the map would make the
				// endpoints slice — and hence the whole graph — depend on
				// Go's randomized map order.
				picked = append(picked, u)
			}
		}
		for _, u := range picked {
			b.AddEdge(u, v)
			endpoints = append(endpoints, u, v)
		}
	}
	return Result{G: b.MustBuild(), Name: fmt.Sprintf("ba(n=%d,m=%d)", n, attach), ArboricityBound: attach}
}

// RandomBipartite returns a random bipartite graph with sides of size a and
// b and edge probability p. Bipartite base graphs are what the Section 5
// lower-bound construction consumes.
func RandomBipartite(a, b int, p float64, seed uint64) Result {
	r := rng.New(seed)
	bl := graph.NewBuilder(a + b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			if r.Bernoulli(p) {
				bl.AddEdge(u, a+v)
			}
		}
	}
	return Result{G: bl.MustBuild(), Name: fmt.Sprintf("bipartite(%d+%d,p=%g)", a, b, p)}
}

// Geometric returns a unit-disk-style graph: n points placed uniformly in
// the unit square, connected when within the given radius. This is the
// ad-hoc wireless network workload from the paper's motivation (§1).
func Geometric(n int, radius float64, seed uint64) Result {
	r := rng.New(seed)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	// Grid-bucket the points so construction is near-linear for small radii.
	cells := int(1 / radius)
	if cells < 1 {
		cells = 1
	}
	bucket := make(map[[2]int][]int)
	cellOf := func(i int) [2]int {
		cx, cy := int(xs[i]*float64(cells)), int(ys[i]*float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return [2]int{cx, cy}
	}
	for i := 0; i < n; i++ {
		c := cellOf(i)
		bucket[c] = append(bucket[c], i)
	}
	b := graph.NewBuilder(n)
	r2 := radius * radius
	for i := 0; i < n; i++ {
		c := cellOf(i)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range bucket[[2]int{c[0] + dx, c[1] + dy}] {
					if j <= i {
						continue
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						b.AddEdge(i, j)
					}
				}
			}
		}
	}
	return Result{G: b.MustBuild(), Name: fmt.Sprintf("geom(n=%d,r=%g)", n, radius)}
}

// Hypercube returns the d-dimensional hypercube (2^d nodes).
func Hypercube(d int) Result {
	n := 1 << d
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			u := v ^ (1 << bit)
			if u > v {
				b.AddEdge(v, u)
			}
		}
	}
	return Result{G: b.MustBuild(), Name: fmt.Sprintf("hypercube(d=%d)", d)}
}
