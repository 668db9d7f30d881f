package graph_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"arbods/internal/gen"
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

// BenchmarkDecode measures upload decoding on the four serving families
// at n=20000 with uniform weights in [1,100], each body as text and as
// ARBCSR01, read from a bytes.Reader the way the server hands an upload
// body to the decoder.
func BenchmarkDecode(b *testing.B) {
	for _, spec := range []string{"forest:n=20000,k=3", "ba:n=20000,m=3", "geom:n=20000,r=0.012", "er:n=20000,p=0.0002"} {
		w, err := gen.Parse(spec + ",seed=1/uniform:max=100,seed=1")
		if err != nil {
			b.Fatal(err)
		}
		var text, bin bytes.Buffer
		if err := graph.Encode(&text, w.G); err != nil {
			b.Fatal(err)
		}
		if err := graph.EncodeBinary(&bin, w.G); err != nil {
			b.Fatal(err)
		}
		family, _, _ := strings.Cut(spec, ":")
		for _, c := range []struct {
			format string
			body   []byte
			decode func(io.Reader) (*graph.Graph, error)
		}{
			{"text", text.Bytes(), graph.Decode},
			{"binary", bin.Bytes(), graph.DecodeBinary},
		} {
			b.Run(c.format+"/"+family, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(c.body)))
				for b.Loop() {
					if _, err := c.decode(bytes.NewReader(c.body)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
