package graph_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"arbods/internal/graph"
	"arbods/internal/rng"
)

func triangle(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.NewBuilder(3).AddEdge(0, 1).AddEdge(1, 2).AddEdge(0, 2).MustBuild()
}

func TestBuilderBasics(t *testing.T) {
	g := graph.NewBuilder(4).
		AddEdge(0, 1).
		AddEdge(1, 2).
		AddEdge(2, 3).
		SetWeight(3, 42).
		MustBuild()
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("got n=%d m=%d", g.N(), g.M())
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("max degree = %d, want 2", g.MaxDegree())
	}
	if g.Weight(3) != 42 || g.Weight(0) != 1 {
		t.Fatalf("weights wrong: %d, %d", g.Weight(3), g.Weight(0))
	}
	if g.TotalWeight() != 45 {
		t.Fatalf("total weight = %d, want 45", g.TotalWeight())
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) || g.HasEdge(0, 3) || g.HasEdge(1, 1) {
		t.Fatal("HasEdge wrong")
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"negative-n", func() (*graph.Graph, error) { return graph.NewBuilder(-1).Build() }},
		{"self-loop", func() (*graph.Graph, error) { return graph.NewBuilder(2).AddEdge(1, 1).Build() }},
		{"edge-oob", func() (*graph.Graph, error) { return graph.NewBuilder(2).AddEdge(0, 2).Build() }},
		{"edge-neg", func() (*graph.Graph, error) { return graph.NewBuilder(2).AddEdge(-1, 0).Build() }},
		{"weight-oob-node", func() (*graph.Graph, error) { return graph.NewBuilder(2).SetWeight(5, 1).Build() }},
		{"weight-zero", func() (*graph.Graph, error) { return graph.NewBuilder(2).SetWeight(0, 0).Build() }},
		{"weight-huge", func() (*graph.Graph, error) {
			return graph.NewBuilder(2).SetWeight(0, graph.MaxWeight+1).Build()
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.build(); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestDuplicateEdgesDeduplicated(t *testing.T) {
	g := graph.NewBuilder(3).
		AddEdge(0, 1).AddEdge(1, 0).AddEdge(0, 1).
		MustBuild()
	if g.M() != 1 {
		t.Fatalf("m = %d, want 1", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatal("degrees wrong after dedup")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := graph.NewBuilder(5).
		AddEdge(4, 2).AddEdge(2, 0).AddEdge(2, 3).AddEdge(1, 2).
		MustBuild()
	nb := g.Neighbors(2)
	want := []int32{0, 1, 3, 4}
	if len(nb) != len(want) {
		t.Fatalf("neighbors = %v", nb)
	}
	for i := range nb {
		if nb[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v", nb, want)
		}
	}
}

func TestClosedNeighborhoodMinWeight(t *testing.T) {
	g := graph.NewBuilder(3).
		AddEdge(0, 1).AddEdge(1, 2).
		SetWeight(0, 5).SetWeight(1, 3).SetWeight(2, 3).
		MustBuild()
	tau, arg := g.ClosedNeighborhoodMinWeight(0)
	if tau != 3 || arg != 1 {
		t.Fatalf("τ(0)=%d argmin=%d, want 3, 1", tau, arg)
	}
	// Tie at weight 3 between nodes 1 and 2: lower ID wins.
	tau, arg = g.ClosedNeighborhoodMinWeight(1)
	if tau != 3 || arg != 1 {
		t.Fatalf("τ(1)=%d argmin=%d, want 3, 1", tau, arg)
	}
}

func TestIsForest(t *testing.T) {
	if triangle(t).IsForest() {
		t.Fatal("triangle is not a forest")
	}
	path := graph.NewBuilder(4).AddEdge(0, 1).AddEdge(1, 2).AddEdge(2, 3).MustBuild()
	if !path.IsForest() {
		t.Fatal("path is a forest")
	}
	if !graph.NewBuilder(3).MustBuild().IsForest() {
		t.Fatal("edgeless graph is a forest")
	}
}

func TestSetWeights(t *testing.T) {
	g := triangle(t)
	g2, err := g.SetWeights([]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight(1) != 1 || g2.Weight(1) != 2 {
		t.Fatal("SetWeights must not mutate the original")
	}
	if _, err := g.SetWeights([]int64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := g.SetWeights([]int64{0, 1, 1}); err == nil {
		t.Fatal("zero weight accepted")
	}
}

// randomGraph builds a pseudo-random graph from a seed, for property tests.
func randomGraph(seed uint64, n int) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Bernoulli(0.15) {
				b.AddEdge(u, v)
			}
		}
	}
	for v := 0; v < n; v++ {
		b.SetWeight(v, 1+r.Int63n(1000))
	}
	return b.MustBuild()
}

// TestCodecRoundTrip is a property test: Encode∘Decode is the identity on
// random graphs.
func TestCodecRoundTrip(t *testing.T) {
	prop := func(seed uint64, sz uint8) bool {
		n := int(sz%40) + 1
		g := randomGraph(seed, n)
		var sb strings.Builder
		if err := graph.Encode(&sb, g); err != nil {
			return false
		}
		g2, err := graph.Decode(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			return false
		}
		for v := 0; v < g.N(); v++ {
			if g2.Weight(v) != g.Weight(v) || g2.Degree(v) != g.Degree(v) {
				return false
			}
			nb, nb2 := g.Neighbors(v), g2.Neighbors(v)
			for i := range nb {
				if nb[i] != nb2[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, quickConfig(t, 50)); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad-header":   "nonsense v9\nn 1 m 0\n",
		"bad-size":     "arbods-graph v1\nnope\n",
		"bad-edge":     "arbods-graph v1\nn 2 m 1\ne 0 x\n",
		"m-mismatch":   "arbods-graph v1\nn 2 m 2\ne 0 1\n",
		"unrecognized": "arbods-graph v1\nn 2 m 0\nz 1 2\n",
		"edge-oob":     "arbods-graph v1\nn 2 m 1\ne 0 5\n",
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := graph.Decode(strings.NewReader(input)); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestDecodeIgnoresComments(t *testing.T) {
	input := "# a comment\narbods-graph v1\n\nn 2 m 1\n# another\ne 0 1\n"
	g, err := graph.Decode(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || g.M() != 1 {
		t.Fatal("decode with comments failed")
	}
}

// quickConfig returns a testing/quick config of count cases drawn from one
// seed, which it takes from the clock and logs: a failing run prints the
// seed, and putting it in place of the clock replays the same inputs.
func quickConfig(t *testing.T, count int) *quick.Config {
	t.Helper()
	seed := time.Now().UnixNano()
	t.Logf("testing/quick seed %d", seed)
	return &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(seed))}
}
