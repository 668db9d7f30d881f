package mds_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"arbods/internal/baseline"
	"arbods/internal/congest"
	"arbods/internal/gen"
	"arbods/internal/graph"
	"arbods/internal/mds"
	"arbods/internal/rng"
	"arbods/internal/verify"
)

// collect extracts the per-node membership and packing vectors of a report.
func collect(rep *mds.Report) (inSet []bool, packing []float64) {
	inSet = make([]bool, len(rep.Result.Outputs))
	packing = make([]float64, len(rep.Result.Outputs))
	for v, out := range rep.Result.Outputs {
		inSet[v] = out.InDS
		packing[v] = out.Packing
	}
	return inSet, packing
}

// checkRun asserts the universal invariants of a completed run: valid
// dominating set, feasible packing, and (for deterministic algorithms) the
// per-run certificate w(S) ≤ Factor·Σx.
func checkRun(t *testing.T, g *graph.Graph, rep *mds.Report) {
	t.Helper()
	if !rep.AllDominated {
		t.Fatalf("%s: report says not all nodes dominated", rep.Algorithm)
	}
	inSet, packing := collect(rep)
	if und := verify.DominatingSet(g, inSet); len(und) > 0 {
		t.Fatalf("%s: not a dominating set; %d undominated, first=%d", rep.Algorithm, len(und), und[0])
	}
	if err := verify.PackingFeasible(g, packing, verify.DefaultTol); err != nil {
		t.Fatalf("%s: %v", rep.Algorithm, err)
	}
	if rep.Factor > 0 {
		if err := verify.Certificate(g, inSet, packing, rep.Factor, verify.DefaultTol); err != nil {
			t.Fatalf("%s: %v", rep.Algorithm, err)
		}
	}
	if got := verify.SetWeight(g, inSet); got != rep.DSWeight {
		t.Fatalf("%s: DSWeight=%d but recount=%d", rep.Algorithm, rep.DSWeight, got)
	}
}

func testGraphs(t *testing.T) []gen.Result {
	t.Helper()
	return []gen.Result{
		gen.Path(40),
		gen.Cycle(31),
		gen.Star(25),
		gen.RandomTree(60, 7),
		gen.ForestUnion(80, 2, 11),
		gen.ForestUnion(70, 4, 13),
		gen.Grid(8, 9),
		gen.Torus(6, 7),
		gen.Complete(12),
		gen.BarabasiAlbert(90, 3, 17),
		{G: graph.NewBuilder(1).MustBuild(), Name: "singleton", ArboricityBound: 1},
		{G: graph.NewBuilder(5).MustBuild(), Name: "empty5", ArboricityBound: 1},
	}
}

func alphaFor(w gen.Result) int {
	if w.ArboricityBound > 0 {
		return w.ArboricityBound
	}
	// Fall back to a generous bound for constructions without one.
	return 4
}

func TestUnweightedDeterministic(t *testing.T) {
	for _, w := range testGraphs(t) {
		t.Run(w.Name, func(t *testing.T) {
			rep, err := mds.UnweightedDeterministic(w.G, alphaFor(w), 0.2, congest.WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, w.G, rep)
		})
	}
}

func TestWeightedDeterministic(t *testing.T) {
	for _, w := range testGraphs(t) {
		t.Run(w.Name, func(t *testing.T) {
			g := gen.UniformWeights(w.G, 100, 3)
			rep, err := mds.WeightedDeterministic(g, alphaFor(w), 0.2, congest.WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, g, rep)
		})
	}
}

func TestWeightedRandomized(t *testing.T) {
	for _, w := range testGraphs(t) {
		t.Run(w.Name, func(t *testing.T) {
			g := gen.UniformWeights(w.G, 50, 5)
			rep, err := mds.WeightedRandomized(g, alphaFor(w), 2, congest.WithSeed(9))
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, g, rep)
		})
	}
}

func TestGeneralGraphs(t *testing.T) {
	for _, w := range testGraphs(t) {
		t.Run(w.Name, func(t *testing.T) {
			g := gen.UniformWeights(w.G, 50, 5)
			rep, err := mds.GeneralGraphs(g, 2, congest.WithSeed(9))
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, g, rep)
		})
	}
}

// TestGeneralGraphsRounds pins Theorem 1.3's schedule: γ = (Δ+1)^{1/k}
// and λ = 1/(Δ+1) give k phases of k+1 two-round iterations after the 2
// setup rounds. At Δ=24, k=3 the float log ratio is 3.0000000000000004,
// and a bare ceil of it would schedule 4 phases of 5 iterations (42
// rounds).
func TestGeneralGraphsRounds(t *testing.T) {
	g := gen.Star(25).G // Δ = 24
	for k := 1; k <= 4; k++ {
		rep, err := mds.GeneralGraphs(g, k, congest.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		if want := 2 + 2*k*(k+1); rep.Rounds() != want {
			t.Errorf("k=%d: %d rounds, want %d", k, rep.Rounds(), want)
		}
	}
}

func TestUnknownDelta(t *testing.T) {
	for _, w := range testGraphs(t) {
		t.Run(w.Name, func(t *testing.T) {
			g := gen.UniformWeights(w.G, 100, 3)
			rep, err := mds.UnknownDelta(g, alphaFor(w), 0.2, congest.WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, g, rep)
		})
	}
}

func TestUnknownAlpha(t *testing.T) {
	for _, w := range testGraphs(t) {
		t.Run(w.Name, func(t *testing.T) {
			g := gen.UniformWeights(w.G, 100, 3)
			rep, err := mds.UnknownAlpha(g, 0.25, congest.WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, g, rep)
		})
	}
}

// TestPartialProperties checks the two properties of Lemma 4.1 exactly:
// (a) w(S) ≤ α(1/(1+ε) − λ(α+1))⁻¹ · Σ_{v∈N+(S)} x_v,
// (b) every undominated node has x_v > λτ_v.
func TestPartialProperties(t *testing.T) {
	for _, w := range testGraphs(t) {
		t.Run(w.Name, func(t *testing.T) {
			g := gen.UniformWeights(w.G, 100, 3)
			alpha := alphaFor(w)
			eps := 0.25
			lambda := 0.5 / (float64(alpha+1) * (1 + eps))
			rep, err := mds.PartialWeighted(g, alpha, eps, lambda, congest.WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			_, packing := collect(rep)
			if err := verify.PackingFeasible(g, packing, verify.DefaultTol); err != nil {
				t.Fatal(err)
			}
			var dominatedPacking float64
			var partialWeight int64
			for v, out := range rep.Result.Outputs {
				if out.InPartial {
					partialWeight += g.Weight(v)
				}
				if out.Dominated {
					dominatedPacking += out.Packing
				} else {
					// Property (b).
					if out.Packing <= lambda*float64(out.Tau)*(1-1e-12) {
						t.Fatalf("node %d undominated with x=%g ≤ λτ=%g", v, out.Packing, lambda*float64(out.Tau))
					}
				}
			}
			// Property (a).
			bound := mds.PartialFactor(alpha, eps, lambda) * dominatedPacking
			if float64(partialWeight) > bound*(1+1e-9) {
				t.Fatalf("property (a) violated: w(S)=%d > %g", partialWeight, bound)
			}
		})
	}
}

// pseudoforestUnion returns the union of k random functional graphs on n
// nodes: in each part every node points at a uniformly random other node,
// so each component of a part has at most one cycle — a pseudoforest. The
// union is orientable with out-degree ≤ k, while its arboricity can reach
// 2k.
func pseudoforestUnion(n, k int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for range k {
		for v := range n {
			u := r.Intn(n - 1)
			if u >= v {
				u++
			}
			b.AddEdge(v, u)
		}
	}
	return b.MustBuild()
}

// TestPseudoforestFootnote validates footnote 2 of the paper: the
// algorithms only need the graph to be orientable with out-degree ≤ α, so
// a union of k pseudoforests (true arboricity up to 2k) can be solved with
// α = k — and the (2k+1)(1+ε) certificate must still hold.
func TestPseudoforestFootnote(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		g := gen.UniformWeights(pseudoforestUnion(120, k, uint64(10*k+1)), 50, 5)
		rep, err := mds.WeightedDeterministic(g, k, 0.25, congest.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, g, rep) // includes the (2k+1)(1+ε) certificate
	}
}

// TestQuickWeightedDeterministic is the central property test: on random
// bounded-arboricity graphs with random weights and seeds, Theorem 1.1
// must always produce a dominating set, a feasible packing, and satisfy
// its certificate.
func TestQuickWeightedDeterministic(t *testing.T) {
	prop := func(seed uint64, kRaw, epsRaw uint8) bool {
		k := int(kRaw%4) + 1
		eps := 0.05 + float64(epsRaw%8)*0.1
		w := gen.ForestUnion(60, k, seed)
		g := gen.UniformWeights(w.G, 30, seed+1)
		rep, err := mds.WeightedDeterministic(g, k, eps, congest.WithSeed(seed))
		if err != nil || !rep.AllDominated {
			return false
		}
		inSet := make([]bool, g.N())
		packing := make([]float64, g.N())
		for v, out := range rep.Result.Outputs {
			inSet[v] = out.InDS
			packing[v] = out.Packing
		}
		if len(verify.DominatingSet(g, inSet)) > 0 {
			return false
		}
		if verify.PackingFeasible(g, packing, verify.DefaultTol) != nil {
			return false
		}
		return verify.Certificate(g, inSet, packing, rep.Factor, verify.DefaultTol) == nil
	}
	if err := quick.Check(prop, quickConfig(t, 60)); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRandomizedAlgorithms: same property sweep for the randomized
// algorithms (no deterministic factor, but domination and packing
// feasibility are unconditional).
func TestQuickRandomizedAlgorithms(t *testing.T) {
	prop := func(seed uint64, kRaw, tRaw uint8) bool {
		k := int(kRaw%4) + 1
		tt := int(tRaw%3) + 1
		w := gen.ForestUnion(50, k, seed)
		g := gen.UniformWeights(w.G, 30, seed+1)
		rep, err := mds.WeightedRandomized(g, k, tt, congest.WithSeed(seed))
		if err != nil || !rep.AllDominated {
			return false
		}
		inSet := make([]bool, g.N())
		packing := make([]float64, g.N())
		for v, out := range rep.Result.Outputs {
			inSet[v] = out.InDS
			packing[v] = out.Packing
		}
		return len(verify.DominatingSet(g, inSet)) == 0 &&
			verify.PackingFeasible(g, packing, verify.DefaultTol) == nil
	}
	if err := quick.Check(prop, quickConfig(t, 40)); err != nil {
		t.Fatal(err)
	}
}

// TestLemma47SampledDominators checks the Lemma 4.7 bound empirically:
// averaged over nodes and seeds, the number of sampled dominators at a
// node's first-domination iteration must stay near E[c_v] ≤ γ+1. The
// average over many nodes of i.i.d.-ish quantities concentrates, so a 1.5×
// margin on the mean is a meaningful (non-vacuous) check.
func TestLemma47SampledDominators(t *testing.T) {
	w := gen.ErdosRenyi(400, 0.03, 11)
	g := gen.UniformWeights(w.G, 30, 5)
	var total, count float64
	var gamma float64
	for seed := uint64(0); seed < 10; seed++ {
		rep, err := mds.GeneralGraphs(g, 2, congest.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		gamma = rep.Gamma
		for _, out := range rep.Result.Outputs {
			if out.SampledDominators > 0 {
				total += float64(out.SampledDominators)
				count++
			}
		}
	}
	if count == 0 {
		t.Fatal("no extension dominations recorded")
	}
	meanCV := total / count
	bound := (gamma + 1) * 1.5
	if meanCV > bound {
		t.Fatalf("mean c_v = %.2f exceeds 1.5·(γ+1) = %.2f (γ=%.2f)", meanCV, bound, gamma)
	}
	t.Logf("mean c_v = %.2f, Lemma 4.7 bound γ+1 = %.2f", meanCV, gamma+1)
}

func TestTreeThreeApprox(t *testing.T) {
	trees := []gen.Result{
		gen.Path(30),
		gen.Star(20),
		gen.RandomTree(45, 3),
		gen.Caterpillar(10, 3),
		gen.BalancedTree(3, 3),
		{G: graph.NewBuilder(2).AddEdge(0, 1).MustBuild(), Name: "K2", ArboricityBound: 1},
		{G: graph.NewBuilder(3).MustBuild(), Name: "isolated3", ArboricityBound: 1},
	}
	for _, w := range trees {
		t.Run(w.Name, func(t *testing.T) {
			rep, err := mds.TreeThreeApprox(w.G)
			if err != nil {
				t.Fatal(err)
			}
			inSet, _ := collect(rep)
			if und := verify.DominatingSet(w.G, inSet); len(und) > 0 {
				t.Fatalf("not dominating: %v", und)
			}
			if w.G.N() <= baseline.ExactLimit {
				opt, err := baseline.Exact(w.G)
				if err != nil {
					t.Fatal(err)
				}
				if rep.DSWeight > 3*opt.Weight {
					t.Fatalf("3-approximation violated: got %d, OPT=%d", rep.DSWeight, opt.Weight)
				}
			}
		})
	}
}

// TestApproxAgainstExact cross-checks every algorithm against the exact
// optimum on small instances.
func TestApproxAgainstExact(t *testing.T) {
	small := []gen.Result{
		gen.Path(16),
		gen.Cycle(15),
		gen.RandomTree(20, 3),
		gen.ForestUnion(18, 2, 5),
		gen.Grid(4, 5),
		gen.Complete(8),
		gen.ErdosRenyi(20, 0.2, 3),
	}
	for _, w := range small {
		t.Run(w.Name, func(t *testing.T) {
			g := gen.UniformWeights(w.G, 20, 7)
			opt, err := baseline.Exact(g)
			if err != nil {
				t.Fatal(err)
			}
			if opt.Weight <= 0 && g.N() > 0 {
				t.Fatalf("exact solver returned weight %d", opt.Weight)
			}
			alpha := alphaFor(w)
			eps := 0.25
			rep, err := mds.WeightedDeterministic(g, alpha, eps, congest.WithSeed(2))
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, g, rep)
			bound := float64(2*alpha+1) * (1 + eps) * float64(opt.Weight)
			if float64(rep.DSWeight) > bound*(1+1e-9) {
				t.Fatalf("approximation vs exact violated: got %d, bound %g (OPT=%d)",
					rep.DSWeight, bound, opt.Weight)
			}
			// The packing lower bound must be consistent with OPT.
			if rep.PackingSum > float64(opt.Weight)*(1+1e-9) {
				t.Fatalf("packing sum %g exceeds OPT %d", rep.PackingSum, opt.Weight)
			}
		})
	}
}

// TestWeightSensitivity pins the weighted algorithm's qualitative behavior
// on adversarial stars — the cases where weight-blind algorithms fail.
func TestWeightSensitivity(t *testing.T) {
	const leaves = 50
	build := func(center, leaf int64) *graph.Graph {
		b := graph.NewBuilder(leaves + 1)
		b.SetWeight(0, center)
		for v := 1; v <= leaves; v++ {
			b.AddEdge(0, v)
			b.SetWeight(v, leaf)
		}
		return b.MustBuild()
	}
	// Cheap center: OPT = 1 (the center alone). The algorithm must find a
	// solution within its bound of that.
	cheap := build(1, 100)
	rep, err := mds.WeightedDeterministic(cheap, 1, 0.25, congest.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, cheap, rep)
	if float64(rep.DSWeight) > rep.Factor*1 {
		t.Fatalf("cheap center: weight %d exceeds bound·OPT = %.1f", rep.DSWeight, rep.Factor)
	}
	// Expensive center: OPT = leaves (all leaves at weight 1 each). A
	// weight-blind algorithm would grab the degree-50 center (weight 10⁵).
	dear := build(100_000, 1)
	rep, err = mds.WeightedDeterministic(dear, 1, 0.25, congest.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, dear, rep)
	if float64(rep.DSWeight) > rep.Factor*float64(leaves) {
		t.Fatalf("expensive center: weight %d exceeds bound·OPT = %.1f",
			rep.DSWeight, rep.Factor*float64(leaves))
	}
	if rep.DSWeight >= 100_000 {
		t.Fatalf("expensive center was selected (weight %d)", rep.DSWeight)
	}
}

// TestDisconnectedComponents: every algorithm must handle graphs whose
// components differ wildly (a clique, a path, isolated nodes).
func TestDisconnectedComponents(t *testing.T) {
	b := graph.NewBuilder(20)
	for u := 0; u < 5; u++ { // clique on 0..4
		for v := u + 1; v < 5; v++ {
			b.AddEdge(u, v)
		}
	}
	for v := 5; v < 11; v++ { // path on 5..11
		b.AddEdge(v, v+1)
	}
	// nodes 12..19: eight isolated nodes
	g := b.MustBuild()
	gw := gen.UniformWeights(g, 20, 3)

	for _, tt := range []struct {
		name string
		run  func() (*mds.Report, error)
	}{
		{"weighted-det", func() (*mds.Report, error) {
			return mds.WeightedDeterministic(gw, 3, 0.25, congest.WithSeed(2))
		}},
		{"randomized", func() (*mds.Report, error) {
			return mds.WeightedRandomized(gw, 3, 2, congest.WithSeed(2))
		}},
		{"general", func() (*mds.Report, error) {
			return mds.GeneralGraphs(gw, 2, congest.WithSeed(2))
		}},
		{"unknown-delta", func() (*mds.Report, error) {
			return mds.UnknownDelta(gw, 3, 0.25, congest.WithSeed(2))
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			rep, err := tt.run()
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, gw, rep)
			// All eight isolated nodes must be in the set.
			for v := 12; v < 20; v++ {
				if !rep.Result.Outputs[v].InDS {
					t.Fatalf("isolated node %d not selected", v)
				}
			}
		})
	}
}

// TestDeterminism checks that the same seed yields the same result with
// different worker counts (parallel == sequential).
func TestDeterminism(t *testing.T) {
	w := gen.ForestUnion(200, 3, 21)
	g := gen.UniformWeights(w.G, 100, 4)
	run := func(workers int) *mds.Report {
		rep, err := mds.WeightedRandomized(g, 3, 2, congest.WithSeed(42), congest.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(1), run(8)
	if a.DSWeight != b.DSWeight || len(a.DS) != len(b.DS) {
		t.Fatalf("parallel/sequential divergence: %d/%d vs %d/%d",
			a.DSWeight, len(a.DS), b.DSWeight, len(b.DS))
	}
	for i := range a.DS {
		if a.DS[i] != b.DS[i] {
			t.Fatalf("DS differs at index %d: %d vs %d", i, a.DS[i], b.DS[i])
		}
	}
	// Different seeds should (almost surely) explore different sets on a
	// graph this size; equality would suggest the seed is ignored.
	c := func() *mds.Report {
		rep, err := mds.WeightedRandomized(g, 3, 2, congest.WithSeed(1234))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}()
	same := len(a.DS) == len(c.DS)
	if same {
		for i := range a.DS {
			if a.DS[i] != c.DS[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Log("warning: different seeds produced identical dominating sets (possible but unlikely)")
	}
}

// TestLargeForestWorkerInvariance runs Theorem 1.1 on a forest3 above the
// engine's touch gate (131072 nodes), where the rounds after a dense round
// step in touch blocks, at one, two and three workers: the whole Report
// must be equal, and rounds, messages, bits, DS weight and certified ratio
// must equal the pins, recorded before the touch blocks existed. Every
// other determinism graph is below the gate.
func TestLargeForestWorkerInvariance(t *testing.T) {
	const spec = "forest:n=150000,k=3,seed=1/uniform:max=100,seed=1"
	w, err := gen.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	var want *mds.Report
	for _, workers := range []int{1, 2, 3} {
		rep, err := mds.WeightedDeterministic(w.G, 3, 0.2, congest.WithSeed(1), congest.WithWorkers(workers),
			congest.WithRoundStats(), congest.WithMessageStats())
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = rep
			continue
		}
		if !reflect.DeepEqual(rep, want) {
			t.Errorf("workers=%d: the report differs from the one at workers=1", workers)
		}
	}
	type pin struct {
		rounds         int
		messages, bits int64
		dsWeight       int64
		ratio          float64
	}
	got := pin{want.Rounds(), want.Result.Messages, want.Result.TotalBits, want.DSWeight, want.CertifiedRatio()}
	if pinned := (pin{18, 7623484, 85279469, 1111905, 3.9892642972189387}); got != pinned {
		t.Errorf("%s: got %+v, want the pin %+v", spec, got, pinned)
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
