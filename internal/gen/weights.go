package gen

import (
	"math"

	"arbods/internal/graph"
	"arbods/internal/rng"
)

// Weight assigners produce the weighted instances for the Section 4
// algorithms (Theorem 1.1 is the first distributed algorithm for the
// weighted problem, so the harness exercises several weight regimes).

// UniformWeights returns a copy of g with weights drawn uniformly from
// [1, max].
func UniformWeights(g *graph.Graph, max int64, seed uint64) *graph.Graph {
	if max < 1 {
		max = 1
	}
	r := rng.New(seed)
	w := make([]int64, g.N())
	for v := range w {
		w[v] = 1 + r.Int63n(max)
	}
	return mustSetWeights(g, w)
}

// ExponentialWeights returns a copy of g with weights of the form
// round(scale · Exp(1)) + 1, giving a heavy-ish tail that separates τ_v
// minima clearly — the regime where the τ-completion step of Theorem 1.1
// differs most from the unweighted algorithm.
func ExponentialWeights(g *graph.Graph, scale float64, seed uint64) *graph.Graph {
	if !(scale >= 1) { // NaN too
		scale = 1
	}
	r := rng.New(seed)
	w := make([]int64, g.N())
	for v := range w {
		u := r.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		// Clamp before converting: past 2⁶³ (an infinite or huge scale)
		// the int64 conversion would wrap instead of saturating.
		x := min(math.Round(-scale*math.Log(u)), float64(graph.MaxWeight-1))
		w[v] = int64(max(x, 0)) + 1
	}
	return mustSetWeights(g, w)
}

// DegreeWeights returns a copy of g where node v has weight
// 1 + factor·deg(v). High-degree nodes being expensive is the adversarial
// regime for degree-greedy baselines, and the regime where the primal–dual
// algorithm's weight-sensitivity shows.
func DegreeWeights(g *graph.Graph, factor int64, seed uint64) *graph.Graph {
	if factor < 0 {
		factor = 0
	}
	w := make([]int64, g.N())
	for v := range w {
		w[v] = 1 + factor*int64(g.Degree(v))
	}
	return mustSetWeights(g, w)
}

func mustSetWeights(g *graph.Graph, w []int64) *graph.Graph {
	ng, err := g.SetWeights(w)
	if err != nil {
		// All assigners clamp into the valid range, so this is unreachable
		// for in-package callers.
		panic(err)
	}
	return ng
}
