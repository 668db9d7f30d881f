package arbods

import (
	"io"

	"arbods/internal/arbor"
	"arbods/internal/gen"
	"arbods/internal/graph"
)

// Graph is an immutable simple undirected graph with positive integer node
// weights. Build one with NewBuilder, a generator, or DecodeGraph.
type Graph = graph.Graph

// Builder accumulates nodes and edges and produces an immutable Graph.
type Builder = graph.Builder

// Workload is a generated graph plus the arboricity bound its construction
// guarantees (0 when it guarantees none) — the value to pass as the α
// parameter of the algorithms.
type Workload = gen.Result

// MaxWeight bounds node weights (the paper assumes integer weights
// polynomial in n).
const MaxWeight = graph.MaxWeight

// NewBuilder returns a builder for a graph on n nodes (IDs 0..n-1), all
// with weight 1 until SetWeight is called.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// EncodeGraph writes g in the arbods text format.
func EncodeGraph(w io.Writer, g *Graph) error { return graph.Encode(w, g) }

// DecodeGraph reads a graph in the arbods text format.
func DecodeGraph(r io.Reader) (*Graph, error) { return graph.Decode(r) }

// EncodeGraphBinary writes g in the arbods binary CSR format — the
// checksummed on-disk representation arbods-server snapshots use. Decoding
// is array fills instead of text parsing, so large corpora load in
// milliseconds.
func EncodeGraphBinary(w io.Writer, g *Graph) error { return graph.EncodeBinary(w, g) }

// DecodeGraphBinary reads a graph in the arbods binary CSR format,
// verifying the checksum and re-validating every structural invariant.
func DecodeGraphBinary(r io.Reader) (*Graph, error) { return graph.DecodeBinary(r) }

// Generators. Each returns a Workload whose ArboricityBound field records
// the α the construction guarantees; see the paper's §1.1 for why these
// families matter (planar graphs, bounded treewidth, social networks, …).

// Path returns the path on n nodes (arboricity 1).
func Path(n int) Workload { return gen.Path(n) }

// Cycle returns the cycle on n ≥ 3 nodes (arboricity 2).
func Cycle(n int) Workload { return gen.Cycle(n) }

// Star returns a star with n−1 leaves (arboricity 1).
func Star(n int) Workload { return gen.Star(n) }

// Complete returns K_n (arboricity ⌈n/2⌉).
func Complete(n int) Workload { return gen.Complete(n) }

// RandomTree returns a uniform-attachment random tree (arboricity 1).
func RandomTree(n int, seed uint64) Workload { return gen.RandomTree(n, seed) }

// BalancedTree returns the complete k-ary tree of the given depth.
func BalancedTree(k, depth int) Workload { return gen.BalancedTree(k, depth) }

// Caterpillar returns a spine path with legs leaves per spine node
// (arboricity 1).
func Caterpillar(spine, legs int) Workload { return gen.Caterpillar(spine, legs) }

// Broom returns a path with a burst of leaves at one end: arboricity 1 with
// a controllable maximum degree.
func Broom(pathLen, leaves int) Workload { return gen.Broom(pathLen, leaves) }

// ForestUnion returns the union of k random forests on n shared nodes —
// arboricity ≤ k by the Nash–Williams definition.
func ForestUnion(n, k int, seed uint64) Workload { return gen.ForestUnion(n, k, seed) }

// Grid returns the rows×cols grid (planar bipartite; arboricity ≤ 2).
func Grid(rows, cols int) Workload { return gen.Grid(rows, cols) }

// Torus returns the rows×cols torus (arboricity ≤ 3).
func Torus(rows, cols int) Workload { return gen.Torus(rows, cols) }

// Hypercube returns the d-dimensional hypercube.
func Hypercube(d int) Workload { return gen.Hypercube(d) }

// ErdosRenyi returns G(n, p).
func ErdosRenyi(n int, p float64, seed uint64) Workload { return gen.ErdosRenyi(n, p, seed) }

// BarabasiAlbert returns a preferential-attachment graph (arboricity
// bounded by the attachment parameter — the paper's model for web/social
// graphs).
func BarabasiAlbert(n, attach int, seed uint64) Workload { return gen.BarabasiAlbert(n, attach, seed) }

// RandomBipartite returns a random bipartite graph with sides a and b.
func RandomBipartite(a, b int, p float64, seed uint64) Workload {
	return gen.RandomBipartite(a, b, p, seed)
}

// Geometric returns a unit-disk-style graph on n random points — the
// ad-hoc wireless workload of the paper's motivation.
func Geometric(n int, radius float64, seed uint64) Workload { return gen.Geometric(n, radius, seed) }

// Weight assigners (copy-on-write: the input graph is never mutated).

// UniformWeights draws node weights uniformly from [1, max].
func UniformWeights(g *Graph, max int64, seed uint64) *Graph {
	return gen.UniformWeights(g, max, seed)
}

// ExponentialWeights draws heavy-tailed integer weights with the given
// scale.
func ExponentialWeights(g *Graph, scale float64, seed uint64) *Graph {
	return gen.ExponentialWeights(g, scale, seed)
}

// DegreeWeights sets w_v = 1 + factor·deg(v).
func DegreeWeights(g *Graph, factor int64, seed uint64) *Graph {
	return gen.DegreeWeights(g, factor, seed)
}

// Arboricity machinery.

// ArboricityBounds returns certified lower and upper bounds on α(g)
// (Nash–Williams densities and degeneracy; α ≤ degeneracy ≤ 2α−1).
func ArboricityBounds(g *Graph) (lo, hi int) { return arbor.Bounds(g) }

// Degeneracy returns a degeneracy peeling order and the degeneracy d of g.
// The order is the bin-sort (Batagelj–Zaversnik) peel's: sorted by core
// number, every node with at most d later neighbors. It need not be the
// order repeated minimum-degree removal gives.
func Degeneracy(g *Graph) (order []int, degeneracy int) { return arbor.Degeneracy(g) }

// Orientation is a direction assignment for every edge.
type Orientation = arbor.Orientation

// OrientGreedy returns the degeneracy orientation of g, each edge pointing
// to its endpoint later in Degeneracy's order, so its out-degree is at
// most degeneracy(g) ≤ 2α−1 (Observation 3.5 is the α version).
func OrientGreedy(g *Graph) *Orientation { return arbor.GreedyOrientation(g) }
