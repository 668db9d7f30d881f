package lower_test

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"arbods/internal/arbor"
	"arbods/internal/baseline"
	"arbods/internal/congest"
	"arbods/internal/gen"
	"arbods/internal/graph"
	"arbods/internal/lower"
	"arbods/internal/mds"
	"arbods/internal/verify"
)

func buildBase(t *testing.T) *graph.Graph {
	t.Helper()
	base := gen.RandomBipartite(8, 8, 0.4, 3).G
	if base.M() == 0 {
		t.Fatal("base graph has no edges")
	}
	return base
}

func TestBuildCounts(t *testing.T) {
	base := buildBase(t)
	c, err := lower.Build(base)
	if err != nil {
		t.Fatal(err)
	}
	n, m, delta := base.N(), base.M(), base.MaxDegree()
	wantN := delta*delta*(n+m) + n
	wantM := delta * delta * (2*m + n)
	if c.H.N() != wantN {
		t.Fatalf("H has %d nodes, paper formula gives %d", c.H.N(), wantN)
	}
	if c.H.M() != wantM {
		t.Fatalf("H has %d edges, paper formula gives %d", c.H.M(), wantM)
	}
	// Max degree of H is Δ² (attained by T nodes) for Δ ≥ 2.
	if delta >= 2 && c.H.MaxDegree() != delta*delta {
		t.Fatalf("H max degree %d, want Δ²=%d", c.H.MaxDegree(), delta*delta)
	}
}

func TestArboricityWitness(t *testing.T) {
	base := buildBase(t)
	c, err := lower.Build(base)
	if err != nil {
		t.Fatal(err)
	}
	out := c.ArboricityWitness()
	if err := verify.OutDegreeAtMost(out, 2); err != nil {
		t.Fatal(err)
	}
	// The witness must orient every edge of H exactly once.
	count := 0
	seen := make(map[[2]int]bool)
	for v := range out {
		for _, u := range out[v] {
			if !c.H.HasEdge(v, int(u)) {
				t.Fatalf("witness orients non-edge %d→%d", v, u)
			}
			a, b := v, int(u)
			if a > b {
				a, b = b, a
			}
			if seen[[2]int{a, b}] {
				t.Fatalf("edge {%d,%d} oriented twice", a, b)
			}
			seen[[2]int{a, b}] = true
			count++
		}
	}
	if count != c.H.M() {
		t.Fatalf("witness orients %d edges, H has %d", count, c.H.M())
	}
	// Cross-check with the centralized machinery: H's degeneracy is ≤ 3
	// (arboricity 2 ⇒ degeneracy ≤ 2α−1), and the Nash–Williams lower
	// bound cannot exceed 2.
	lo, hi := arbor.Bounds(c.H)
	if lo > 2 {
		t.Fatalf("Nash–Williams lower bound %d > 2 contradicts the witness", lo)
	}
	if hi > 3 {
		t.Fatalf("degeneracy %d > 3 contradicts arboricity 2", hi)
	}
}

// TestReduction runs the full Theorem 1.4 pipeline: solve MDS on H with the
// paper's own algorithm (arboricity bound 2!), extract a fractional vertex
// cover of the base graph, and verify feasibility and value.
func TestReduction(t *testing.T) {
	base := buildBase(t)
	c, err := lower.Build(base)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mds.UnweightedDeterministic(c.H, 2, 0.2, congest.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	inSet := make([]bool, c.H.N())
	for v, out := range rep.Result.Outputs {
		inSet[v] = out.InDS
	}
	if und := verify.DominatingSet(c.H, inSet); len(und) > 0 {
		t.Fatalf("MDS on H invalid: %d undominated", len(und))
	}
	y := c.ExtractFractionalVC(inSet)
	if err := verify.FractionalVertexCover(base, y, 1e-9); err != nil {
		t.Fatal(err)
	}
	// Value chain of the proof: Σy ≤ |S|/Δ² and |S| ≤ ratio·(Δ²+Δ)·OPT_MFVC,
	// hence Σy ≤ ratio·(1+1/Δ)·OPT_MFVC. OPT_MFVC = max matching (König +
	// bipartite integrality, footnote 3).
	optVC, err := lower.MaxMatching(base)
	if err != nil {
		t.Fatal(err)
	}
	if optVC == 0 {
		t.Fatal("base has edges but zero matching")
	}
	val := verify.FractionalValue(y)
	ratio := rep.CertifiedRatio() // ≥ true approximation ratio of the run
	delta := float64(base.MaxDegree())
	bound := ratio * (1 + 1/delta) * float64(optVC)
	if val > bound*(1+1e-9) {
		t.Fatalf("reduction value %g exceeds proof bound %g (OPT_MFVC=%d, ratio=%g)",
			val, bound, optVC, ratio)
	}
}

// TestReductionProperty: for random bipartite bases, ANY dominating set of
// H (here: greedy's) must extract to a feasible fractional vertex cover —
// the structural heart of the Theorem 1.4 proof.
func TestReductionProperty(t *testing.T) {
	prop := func(seed uint64, aRaw, bRaw uint8) bool {
		a := int(aRaw%5) + 3
		b := int(bRaw%5) + 3
		base := gen.RandomBipartite(a, b, 0.5, seed).G
		if base.M() == 0 {
			return true // vacuous: Build rejects edgeless bases
		}
		c, err := lower.Build(base)
		if err != nil {
			return false
		}
		greedy := baseline.Greedy(c.H)
		inSet := make([]bool, c.H.N())
		for _, v := range greedy.DS {
			inSet[v] = true
		}
		if len(verify.DominatingSet(c.H, inSet)) > 0 {
			return false
		}
		y := c.ExtractFractionalVC(inSet)
		return verify.FractionalVertexCover(base, y, 1e-9) == nil
	}
	if err := quick.Check(prop, quickConfig(t, 25)); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRejections(t *testing.T) {
	if _, err := lower.Build(gen.Cycle(5).G); err == nil {
		t.Fatal("odd cycle accepted as bipartite")
	}
	if _, err := lower.Build(graph.NewBuilder(4).MustBuild()); err == nil {
		t.Fatal("edgeless base accepted")
	}
}

func TestMaxMatching(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"path4", gen.Path(4).G, 2},
		{"path5", gen.Path(5).G, 2},
		{"star6", gen.Star(6).G, 1},
		{"even-cycle", gen.Cycle(8).G, 4},
		{"grid3x3", gen.Grid(3, 3).G, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := lower.MaxMatching(tt.g)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("matching = %d, want %d", got, tt.want)
			}
		})
	}
	if _, err := lower.MaxMatching(gen.Complete(3).G); err == nil {
		t.Fatal("non-bipartite graph accepted")
	}
}

func TestLayeredGadget(t *testing.T) {
	// n0=54, δ=3, depth=2: layers 54/18/6, down-degree 3, up-degree 9.
	g, err := lower.LayeredGadget(54, 3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 54+18+6 {
		t.Fatalf("n=%d", g.N())
	}
	if !lower.IsBipartite(g) {
		t.Fatal("layered gadget not bipartite")
	}
	// Layer degrees: L0 nodes degree 3; L1 nodes 9 (up) + 3 (down) = 12;
	// L2 nodes degree 9.
	for v := 0; v < 54; v++ {
		if g.Degree(v) != 3 {
			t.Fatalf("L0 node %d degree %d", v, g.Degree(v))
		}
	}
	for v := 54; v < 72; v++ {
		if g.Degree(v) != 12 {
			t.Fatalf("L1 node %d degree %d", v, g.Degree(v))
		}
	}
	for v := 72; v < 78; v++ {
		if g.Degree(v) != 9 {
			t.Fatalf("L2 node %d degree %d", v, g.Degree(v))
		}
	}
	// It must feed the Theorem 1.4 pipeline end to end.
	c, err := lower.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	out := c.ArboricityWitness()
	if err := verify.OutDegreeAtMost(out, 2); err != nil {
		t.Fatal(err)
	}
	// Parameter validation.
	if _, err := lower.LayeredGadget(10, 3, 2, 1); err == nil {
		t.Fatal("indivisible n0 accepted")
	}
	if _, err := lower.LayeredGadget(8, 1, 1, 1); err == nil {
		t.Fatal("delta=1 accepted")
	}
	if _, err := lower.LayeredGadget(8, 2, 3, 1); err == nil {
		t.Fatal("overly deep gadget accepted")
	}
}

func TestGadget(t *testing.T) {
	g, err := lower.Gadget(12, 3, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !lower.IsBipartite(g) {
		t.Fatal("gadget not bipartite")
	}
	if g.M() != 36 {
		t.Fatalf("gadget has %d edges, want 36", g.M())
	}
	// Left nodes have degree 3, right nodes degree 4.
	for v := 0; v < 12; v++ {
		if g.Degree(v) != 3 {
			t.Fatalf("left node %d has degree %d, want 3", v, g.Degree(v))
		}
	}
	for v := 12; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("right node %d has degree %d, want 4", v, g.Degree(v))
		}
	}
	// The gadget must survive the full construction pipeline.
	c, err := lower.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	greedy := baseline.Greedy(c.H)
	inSet := make([]bool, c.H.N())
	for _, v := range greedy.DS {
		inSet[v] = true
	}
	y := c.ExtractFractionalVC(inSet)
	if err := verify.FractionalVertexCover(g, y, 1e-9); err != nil {
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
