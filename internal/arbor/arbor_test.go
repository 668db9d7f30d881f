package arbor_test

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"arbods/internal/arbor"
	"arbods/internal/gen"
	"arbods/internal/graph"
)

func TestDegeneracyKnownValues(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"empty", graph.NewBuilder(5).MustBuild(), 0},
		{"path", gen.Path(10).G, 1},
		{"star", gen.Star(12).G, 1},
		{"cycle", gen.Cycle(9).G, 2},
		{"tree", gen.RandomTree(50, 1).G, 1},
		{"grid", gen.Grid(6, 6).G, 2},
		{"complete", gen.Complete(7).G, 6},
		{"hypercube4", gen.Hypercube(4).G, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			order, d := arbor.Degeneracy(tt.g)
			if d != tt.want {
				t.Fatalf("degeneracy = %d, want %d", d, tt.want)
			}
			if len(order) != tt.g.N() {
				t.Fatalf("order has %d nodes, want %d", len(order), tt.g.N())
			}
			seen := make(map[int]bool)
			for _, v := range order {
				if seen[v] {
					t.Fatalf("node %d appears twice in order", v)
				}
				seen[v] = true
			}
		})
	}
}

// TestDegeneracyOrientationProperty: for random forest unions, the
// peeling order passes checkDegeneracy (a permutation in which every node
// has at most d later neighbors, so orienting each edge toward its later
// endpoint gives out-degree ≤ d), and d is at most 2α−1.
func TestDegeneracyOrientationProperty(t *testing.T) {
	prop := func(seed uint64, kRaw, nRaw uint8) bool {
		k := int(kRaw%4) + 1
		n := int(nRaw%60) + 5
		g := gen.ForestUnion(n, k, seed).G
		_, d := arbor.Degeneracy(g)
		return d <= 2*k-1 && checkDegeneracy(g) == nil // degeneracy ≤ 2α−1 ≤ 2k−1
	}
	if err := quick.Check(prop, quickConfig(t, 60)); err != nil {
		t.Fatal(err)
	}
}

func TestBounds(t *testing.T) {
	tests := []struct {
		name  string
		g     *graph.Graph
		loMin int // lower bound must be ≥ this
		hiMax int // upper bound must be ≤ this
	}{
		{"tree", gen.RandomTree(60, 2).G, 1, 1},
		{"cycle", gen.Cycle(12).G, 2, 2},
		{"complete8", gen.Complete(8).G, 4, 7},
		{"grid", gen.Grid(7, 7).G, 2, 3},
		{"empty", graph.NewBuilder(3).MustBuild(), 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			lo, hi := arbor.Bounds(tt.g)
			if lo > hi {
				t.Fatalf("lo=%d > hi=%d", lo, hi)
			}
			if lo < tt.loMin {
				t.Fatalf("lo=%d, want ≥ %d", lo, tt.loMin)
			}
			if hi > tt.hiMax {
				t.Fatalf("hi=%d, want ≤ %d", hi, tt.hiMax)
			}
		})
	}
}

// TestBoundsBracketConstruction: generator-guaranteed arboricity bounds must
// bracket the computed bounds: lo ≤ construction bound, and the degeneracy
// bound must not be absurdly loose (≤ 2·bound − 1).
func TestBoundsBracketConstruction(t *testing.T) {
	prop := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%5) + 1
		g := gen.ForestUnion(40, k, seed)
		lo, hi := arbor.Bounds(g.G)
		return lo <= k && hi <= 2*k-1
	}
	if err := quick.Check(prop, quickConfig(t, 60)); err != nil {
		t.Fatal(err)
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
