package arbods_test

// One benchmark per experiment of internal/bench (E1…E10, one per
// table/figure of the paper). Each target executes its experiment at
// Small scale, so `go test -bench=.` regenerates every quantitative claim;
// `cmd/mdsbench` renders the same experiments as tables, and its
// full-scale output is EXPERIMENTS.md. Additional micro-benchmarks at the
// bottom measure the simulator and the core algorithms in isolation.

import (
	"fmt"
	"strings"
	"testing"

	"arbods"
	"arbods/internal/bench"
	"arbods/internal/gen"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	var exp *bench.Experiment
	for _, e := range bench.All() {
		if e.ID == id {
			e := e
			exp = &e
			break
		}
	}
	if exp == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		tables, err := exp.Run(bench.Config{Seed: uint64(i + 1), Scale: bench.Small})
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables produced")
		}
	}
}

// BenchmarkE1ComparisonTable regenerates the §1.1 prior-work comparison.
func BenchmarkE1ComparisonTable(b *testing.B) { runExperiment(b, "E1") }

// BenchmarkE2RoundsVsDelta regenerates the Theorem 1.1 round-bound sweep.
func BenchmarkE2RoundsVsDelta(b *testing.B) { runExperiment(b, "E2") }

// BenchmarkE3ApproxVsEpsilon regenerates the Theorem 1.1 approximation sweep.
func BenchmarkE3ApproxVsEpsilon(b *testing.B) { runExperiment(b, "E3") }

// BenchmarkE4TradeoffT regenerates the Theorem 1.2 t-sweep.
func BenchmarkE4TradeoffT(b *testing.B) { runExperiment(b, "E4") }

// BenchmarkE5GeneralK regenerates the Theorem 1.3 k-sweep.
func BenchmarkE5GeneralK(b *testing.B) { runExperiment(b, "E5") }

// BenchmarkE6LowerBound regenerates Figure 1 and the Theorem 1.4 reduction.
func BenchmarkE6LowerBound(b *testing.B) { runExperiment(b, "E6") }

// BenchmarkE7Trees regenerates the Observation A.1 tree comparison.
func BenchmarkE7Trees(b *testing.B) { runExperiment(b, "E7") }

// BenchmarkE8UnknownParams regenerates the Remark 4.4/4.5 comparison.
func BenchmarkE8UnknownParams(b *testing.B) { runExperiment(b, "E8") }

// BenchmarkE9Ablations regenerates the design ablations.
func BenchmarkE9Ablations(b *testing.B) { runExperiment(b, "E9") }

// BenchmarkE10Weighted regenerates the weighted-regime table.
func BenchmarkE10Weighted(b *testing.B) { runExperiment(b, "E10") }

// --- micro-benchmarks ---

// BenchmarkWeightedDeterministic measures one Theorem 1.1 run end to end
// (simulator included) on a 2000-node α=3 instance.
func BenchmarkWeightedDeterministic(b *testing.B) {
	w := arbods.ForestUnion(2000, 3, 1)
	g := arbods.UniformWeights(w.G, 100, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := arbods.WeightedDeterministic(g, 3, 0.2, arbods.WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if !rep.AllDominated {
			b.Fatal("undominated")
		}
	}
}

// BenchmarkWeightedRandomized measures one Theorem 1.2 run (t=2).
func BenchmarkWeightedRandomized(b *testing.B) {
	w := arbods.ForestUnion(2000, 3, 1)
	g := arbods.UniformWeights(w.G, 100, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := arbods.WeightedRandomized(g, 3, 2, arbods.WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if !rep.AllDominated {
			b.Fatal("undominated")
		}
	}
}

// BenchmarkWeightedRandomizedServe measures the Theorem 1.2 solves that
// still reach the engine on the serving read path: the four serving
// families at n=20000 with uniform weights up to 100 (the repo benchmark's
// first four serve_read graphs at its seed 1), α = the graph's degeneracy
// and t = 2 (the daemon's defaults for an uploaded graph), one worker on a
// warm Runner (the daemon's pool gives each solve GOMAXPROCS/pool-size
// workers) and a fresh seed per run. λ(Δ+1) < 1 on three of the families,
// so their run is the Lemma 4.6 extension alone.
func BenchmarkWeightedRandomizedServe(b *testing.B) {
	specs := []string{"forest:n=20000,k=3", "ba:n=20000,m=3", "geom:n=20000,r=0.012", "er:n=20000,p=0.0002"}
	for i, spec := range specs {
		s := 8 + i // serve_read's graph i: seed·8 + i at seed 1
		w, err := gen.Parse(fmt.Sprintf("%s,seed=%d/uniform:max=100,seed=%d", spec, s, s))
		if err != nil {
			b.Fatal(err)
		}
		g := w.G
		_, alpha := arbods.Degeneracy(g)
		family, _, _ := strings.Cut(spec, ":")
		b.Run(family, func(b *testing.B) {
			r := arbods.NewRunner()
			defer r.Close()
			solve := func(seed uint64) {
				rep, err := arbods.WeightedRandomized(g, alpha, 2,
					arbods.WithSeed(seed), arbods.WithWorkers(1), arbods.WithRunner(r))
				if err != nil {
					b.Fatal(err)
				}
				if !rep.AllDominated {
					b.Fatal("undominated")
				}
			}
			solve(1000) // warm the Runner
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solve(uint64(1001 + i))
			}
		})
	}
}

// BenchmarkEngineSequentialVsParallel quantifies the simulator's worker
// scaling (ablation E9's engine dimension) through a full algorithm run;
// internal/congest's BenchmarkRunLarge measures the engine alone at
// million-node scale.
func BenchmarkEngineSequentialVsParallel(b *testing.B) {
	w := arbods.ForestUnion(5000, 4, 1)
	g := arbods.UniformWeights(w.G, 100, 2)
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "sequential", 4: "parallel4"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := arbods.WeightedDeterministic(g, 4, 0.2,
					arbods.WithSeed(7), arbods.WithWorkers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGreedyCentralized measures the centralized baseline for scale
// reference.
func BenchmarkGreedyCentralized(b *testing.B) {
	w := arbods.ForestUnion(20000, 3, 1)
	g := arbods.UniformWeights(w.G, 100, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := arbods.GreedyCentralized(g)
		if len(res.DS) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkExactForest measures the linear-time tree DP.
func BenchmarkExactForest(b *testing.B) {
	g := arbods.UniformWeights(arbods.RandomTree(50000, 3).G, 100, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arbods.ExactForest(g); err != nil {
			b.Fatal(err)
		}
	}
}
