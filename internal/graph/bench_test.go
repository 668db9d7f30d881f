package graph_test

import (
	"fmt"
	"testing"

	"arbods/internal/graph"
	"arbods/internal/rng"
)

// randomEdges returns ~avgDeg·n/2 random edges on n nodes (with repeats,
// exercising the dedup path the same way the generators do).
func randomEdges(n int, avgDeg float64, seed uint64) [][2]int {
	r := rng.New(seed)
	m := int(avgDeg * float64(n) / 2)
	edges := make([][2]int, 0, m)
	for len(edges) < m {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			edges = append(edges, [2]int{u, v})
		}
	}
	return edges
}

// BenchmarkBuild measures CSR construction (counting-sort placement,
// dedup) from a prebuilt edge list, at the two scales
// the routing benchmarks use. The edge-list fill is timed too — it is the
// same O(m) append work every caller pays — but generation randomness is
// hoisted out.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		edges := randomEdges(n, 4, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bld := graph.NewBuilder(n)
				for _, e := range edges {
					bld.AddEdge(e[0], e[1])
				}
				if _, err := bld.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
