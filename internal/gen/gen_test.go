package gen_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"arbods/internal/arbor"
	"arbods/internal/gen"
	"arbods/internal/graph"
)

func TestDeterministicFamilies(t *testing.T) {
	tests := []struct {
		name       string
		r          gen.Result
		wantN      int
		wantM      int
		wantForest bool
	}{
		{"path", gen.Path(10), 10, 9, true},
		{"cycle", gen.Cycle(10), 10, 10, false},
		{"star", gen.Star(10), 10, 9, true},
		{"complete", gen.Complete(6), 6, 15, false},
		{"grid", gen.Grid(3, 4), 12, 17, false},
		{"torus", gen.Torus(3, 4), 12, 24, false},
		{"hypercube", gen.Hypercube(3), 8, 12, false},
		{"balanced", gen.BalancedTree(2, 3), 15, 14, true},
		{"caterpillar", gen.Caterpillar(5, 2), 15, 14, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.r.G.N() != tt.wantN {
				t.Fatalf("n = %d, want %d", tt.r.G.N(), tt.wantN)
			}
			if tt.r.G.M() != tt.wantM {
				t.Fatalf("m = %d, want %d", tt.r.G.M(), tt.wantM)
			}
			if got := tt.r.G.IsForest(); got != tt.wantForest {
				t.Fatalf("IsForest = %v, want %v", got, tt.wantForest)
			}
		})
	}
}

// connected reports whether g is connected (the empty graph is).
func connected(g *graph.Graph) bool {
	if g.N() == 0 {
		return true
	}
	seen := make([]bool, g.N())
	seen[0] = true
	stack, reached := []int32{0}, 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range g.Neighbors(int(v)) {
			if !seen[u] {
				seen[u] = true
				reached++
				stack = append(stack, u)
			}
		}
	}
	return reached == g.N()
}

func TestRandomTreeIsTree(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 2
		g := gen.RandomTree(n, seed).G
		return g.N() == n && g.M() == n-1 && g.IsForest() && connected(g)
	}
	if err := quick.Check(prop, quickConfig(t, 50)); err != nil {
		t.Fatal(err)
	}
}

// TestForestUnionArboricity: the construction bound must hold under the
// computed Nash–Williams lower bound.
func TestForestUnionArboricity(t *testing.T) {
	prop := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%5) + 1
		r := gen.ForestUnion(50, k, seed)
		if r.ArboricityBound != k {
			return false
		}
		lo, _ := arbor.Bounds(r.G)
		return lo <= k
	}
	if err := quick.Check(prop, quickConfig(t, 40)); err != nil {
		t.Fatal(err)
	}
}

func TestBarabasiAlbertDegeneracy(t *testing.T) {
	r := gen.BarabasiAlbert(300, 3, 5)
	_, d := arbor.Degeneracy(r.G)
	if d > r.ArboricityBound*2 {
		t.Fatalf("degeneracy %d far exceeds construction bound %d", d, r.ArboricityBound)
	}
	if r.G.N() != 300 {
		t.Fatalf("n = %d", r.G.N())
	}
	if !connected(r.G) {
		t.Fatal("BA graph should be connected")
	}
}

func TestErdosRenyiEdgeCount(t *testing.T) {
	// Expected m = p·n(n−1)/2; with n=200, p=0.1: 1990. Allow ±30%.
	g := gen.ErdosRenyi(200, 0.1, 11).G
	want := 0.1 * 200 * 199 / 2
	if f := float64(g.M()); f < 0.7*want || f > 1.3*want {
		t.Fatalf("m = %d, expected near %.0f", g.M(), want)
	}
	if gen.ErdosRenyi(10, 0, 1).G.M() != 0 {
		t.Fatal("p=0 must give empty graph")
	}
	if gen.ErdosRenyi(6, 1, 1).G.M() != 15 {
		t.Fatal("p=1 must give complete graph")
	}
}

func TestRandomBipartite(t *testing.T) {
	g := gen.RandomBipartite(10, 15, 0.3, 7).G
	if g.N() != 25 {
		t.Fatalf("n = %d", g.N())
	}
	// No edge inside either side.
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			if g.HasEdge(u, v) {
				t.Fatalf("left-side edge {%d,%d}", u, v)
			}
		}
	}
	for u := 10; u < 25; u++ {
		for v := u + 1; v < 25; v++ {
			if g.HasEdge(u, v) {
				t.Fatalf("right-side edge {%d,%d}", u, v)
			}
		}
	}
}

func TestGeometric(t *testing.T) {
	g := gen.Geometric(300, 0.08, 13).G
	if g.N() != 300 {
		t.Fatalf("n = %d", g.N())
	}
	if g.M() == 0 {
		t.Fatal("geometric graph with r=0.08 on 300 points should have edges")
	}
	// Determinism: same seed, same graph.
	g2 := gen.Geometric(300, 0.08, 13).G
	if g2.M() != g.M() {
		t.Fatal("geometric generator is not deterministic")
	}
}

func TestWeightAssigners(t *testing.T) {
	base := gen.Grid(5, 5).G
	u := gen.UniformWeights(base, 50, 3)
	for v := 0; v < u.N(); v++ {
		if w := u.Weight(v); w < 1 || w > 50 {
			t.Fatalf("uniform weight %d out of range", w)
		}
	}
	e := gen.ExponentialWeights(base, 10, 3)
	for v := 0; v < e.N(); v++ {
		if e.Weight(v) < 1 {
			t.Fatalf("exponential weight %d < 1", e.Weight(v))
		}
	}
	// A scale whose products pass 2⁶³ saturates at MaxWeight; it must not
	// wrap around to weight 1.
	for _, scale := range []float64{1e300, math.Inf(1)} {
		e := gen.ExponentialWeights(base, scale, 3)
		for v := 0; v < e.N(); v++ {
			if w := e.Weight(v); w != graph.MaxWeight {
				t.Fatalf("scale=%g: exponential weight %d, want MaxWeight %d", scale, w, graph.MaxWeight)
			}
		}
	}
	d := gen.DegreeWeights(base, 2, 0)
	for v := 0; v < d.N(); v++ {
		if want := 1 + 2*int64(base.Degree(v)); d.Weight(v) != want {
			t.Fatalf("degree weight %d, want %d", d.Weight(v), want)
		}
	}
	// The originals must be untouched (copy-on-write semantics).
	if !base.Unweighted() {
		t.Fatal("weight assigners mutated the base graph")
	}
}

func TestGridArboricityBound(t *testing.T) {
	for _, r := range []gen.Result{gen.Grid(1, 8), gen.Grid(8, 1)} {
		if r.ArboricityBound != 1 {
			t.Fatalf("%s: degenerate grid is a path, bound should be 1", r.Name)
		}
		if !r.G.IsForest() {
			t.Fatalf("%s: degenerate grid must be a forest", r.Name)
		}
	}
	lo, _ := arbor.Bounds(gen.Grid(10, 10).G)
	if lo > 2 {
		t.Fatalf("grid Nash–Williams bound %d > 2", lo)
	}
}

func TestNamesNonEmpty(t *testing.T) {
	rs := []gen.Result{
		gen.Path(3), gen.Cycle(3), gen.Star(3), gen.Complete(3),
		gen.RandomTree(3, 1), gen.BalancedTree(2, 1), gen.Caterpillar(2, 1),
		gen.ForestUnion(5, 2, 1), gen.Grid(2, 2), gen.Torus(3, 3),
		gen.ErdosRenyi(5, 0.5, 1), gen.BarabasiAlbert(6, 2, 1),
		gen.RandomBipartite(2, 2, 0.5, 1), gen.Geometric(5, 0.5, 1), gen.Hypercube(2),
	}
	for _, r := range rs {
		if r.Name == "" {
			t.Fatalf("generator produced empty name: %v", r.G)
		}
		if r.G == nil {
			t.Fatalf("%s: nil graph", r.Name)
		}
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
