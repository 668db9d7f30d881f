// Concurrent experiment sweeps: this example runs the same seed × ε
// sweep twice — strictly sequentially on one reusable Runner, then
// batched across a RunnerPool with RunBatch — and verifies the results
// are identical point for point. The batch path is how cmd/mdsbench
// -parallel executes every repetition loop of the experiment suite:
// independent runs pipeline across warmed Runners, each Runner carries
// an equal share of GOMAXPROCS, and each job writes into its submission
// slot so parallelism never shows up in the output, only in the wall
// clock.
//
//	go run ./examples/sweep
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"arbods"
)

type point struct {
	seed uint64
	eps  float64
}

type outcome struct {
	weight int64
	rounds int
	ratio  float64
}

func main() {
	w := arbods.ForestUnion(2500, 3, 11)
	g := arbods.UniformWeights(w.G, 100, 5)

	var sweep []point
	for seed := uint64(1); seed <= 4; seed++ {
		for _, eps := range []float64{0.1, 0.2, 0.4} {
			sweep = append(sweep, point{seed: seed, eps: eps})
		}
	}

	run := func(p point, opts ...arbods.Option) (outcome, error) {
		rep, err := arbods.WeightedDeterministic(g, w.ArboricityBound, p.eps,
			append([]arbods.Option{arbods.WithSeed(p.seed)}, opts...)...)
		if err != nil {
			return outcome{}, err
		}
		return outcome{weight: rep.DSWeight, rounds: rep.Rounds(), ratio: rep.CertifiedRatio()}, nil
	}

	// Sequential reference: one warm Runner serves every run.
	seq := make([]outcome, len(sweep))
	r := arbods.NewRunner()
	t0 := time.Now()
	for i, p := range sweep {
		var err error
		if seq[i], err = run(p, arbods.WithRunner(r)); err != nil {
			log.Fatal(err)
		}
	}
	seqWall := time.Since(t0)
	r.Close()

	// The same sweep as a batch: one job per point, slot-ordered results.
	par := make([]outcome, len(sweep))
	jobs := make([]arbods.Job, len(sweep))
	for i, p := range sweep {
		jobs[i] = func(pr *arbods.Runner) error {
			var err error
			par[i], err = run(p, arbods.WithRunner(pr))
			return err
		}
	}
	t0 = time.Now()
	if err := arbods.RunBatch(0, jobs...); err != nil {
		log.Fatal(err)
	}
	parWall := time.Since(t0)

	same := true
	for i := range seq {
		if seq[i] != par[i] {
			same = false
		}
	}
	fmt.Printf("sweep of %d runs on %s (α=%d)\n", len(sweep), w.Name, w.ArboricityBound)
	fmt.Printf("  seed=1 ε=0.2 → weight %d, rounds %d, certified ratio %.3f\n",
		seq[1].weight, seq[1].rounds, seq[1].ratio)
	fmt.Printf("batch results identical to sequential: %v\n", same)
	fmt.Printf("sequential %v, batched %v on GOMAXPROCS=%d\n",
		seqWall.Round(time.Millisecond), parWall.Round(time.Millisecond), runtime.GOMAXPROCS(0))
	if !same {
		log.Fatal("batch sweep diverged from the sequential sweep")
	}
}
