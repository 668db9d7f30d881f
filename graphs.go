package arbods

import (
	"io"

	"arbods/internal/arbor"
	"arbods/internal/gen"
	"arbods/internal/graph"
)

// Graph is an immutable simple undirected graph with positive integer node
// weights. Build one with a generator or DecodeGraph.
type Graph = graph.Graph

// Workload is a generated graph plus the arboricity bound its construction
// guarantees (0 when it guarantees none) — the value to pass as the α
// parameter of the algorithms.
type Workload = gen.Result

// MaxWeight bounds node weights (the paper assumes integer weights
// polynomial in n).
const MaxWeight = graph.MaxWeight

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

// RandomTree returns a uniform-attachment random tree (arboricity 1).
func RandomTree(n int, seed uint64) Workload { return gen.RandomTree(n, seed) }

// ForestUnion returns the union of k random forests on n shared nodes —
// arboricity ≤ k by the Nash–Williams definition.
func ForestUnion(n, k int, seed uint64) Workload { return gen.ForestUnion(n, k, seed) }

// Grid returns the rows×cols grid (planar bipartite; arboricity ≤ 2).
func Grid(rows, cols int) Workload { return gen.Grid(rows, cols) }

// BarabasiAlbert returns a preferential-attachment graph (arboricity
// bounded by the attachment parameter — the paper's model for web/social
// graphs).
func BarabasiAlbert(n, attach int, seed uint64) Workload { return gen.BarabasiAlbert(n, attach, seed) }

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

// Arboricity machinery.

// ArboricityBounds returns certified lower and upper bounds on α(g)
// (Nash–Williams densities and degeneracy; α ≤ degeneracy ≤ 2α−1).
func ArboricityBounds(g *Graph) (lo, hi int) { return arbor.Bounds(g) }

// Degeneracy returns a degeneracy peeling order and the degeneracy d of g.
// The order is the bin-sort (Batagelj–Zaversnik) peel's: sorted by core
// number, every node with at most d later neighbors. It need not be the
// order repeated minimum-degree removal gives.
func Degeneracy(g *Graph) (order []int, degeneracy int) { return arbor.Degeneracy(g) }
