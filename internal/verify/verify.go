// Package verify provides machine-checkable certificates for every bound the
// paper states: dominating-set validity, packing feasibility (the Lemma 2.1
// lower bound), the per-run approximation certificates, orientation
// out-degree bounds (Observation 3.5), and fractional vertex cover
// feasibility (the Section 5 reduction).
package verify

import (
	"fmt"

	"arbods/internal/graph"
)

// DefaultTol is the relative tolerance used for floating-point certificate
// comparisons. Packing values are products of at most a few thousand exact
// factors, so 1e-9 relative slack is far above accumulated error yet far
// below any meaningful violation.
const DefaultTol = 1e-9

// DominatingSet checks that inSet is a dominating set of g: every node is in
// the set or adjacent to a member. It returns the list of undominated nodes
// (empty means valid).
func DominatingSet(g *graph.Graph, inSet []bool) (undominated []int) {
	n := g.N()
	for v := 0; v < n; v++ {
		if inSet[v] {
			continue
		}
		dominated := false
		for _, u := range g.Neighbors(v) {
			if inSet[u] {
				dominated = true
				break
			}
		}
		if !dominated {
			undominated = append(undominated, v)
		}
	}
	return undominated
}

// SetWeight returns the total weight of the selected nodes.
func SetWeight(g *graph.Graph, inSet []bool) int64 {
	var w int64
	for v := 0; v < g.N(); v++ {
		if inSet[v] {
			w += g.Weight(v)
		}
	}
	return w
}

// PackingFeasible checks the dual packing constraint of Section 2: for every
// node u, X_u = Σ_{v∈N+(u)} x_v ≤ w_u (up to relative tolerance tol).
// A feasible packing certifies Σ_v x_v ≤ OPT (Lemma 2.1).
func PackingFeasible(g *graph.Graph, x []float64, tol float64) error {
	if len(x) != g.N() {
		return fmt.Errorf("verify: packing has %d entries for %d nodes", len(x), g.N())
	}
	for v, xv := range x {
		if xv < 0 {
			return fmt.Errorf("verify: negative packing value x[%d]=%g", v, xv)
		}
	}
	for u := 0; u < g.N(); u++ {
		sum := x[u]
		for _, v := range g.Neighbors(u) {
			sum += x[v]
		}
		bound := float64(g.Weight(u)) * (1 + tol)
		if sum > bound {
			return fmt.Errorf("verify: packing infeasible at node %d: X=%g > w=%d", u, sum, g.Weight(u))
		}
	}
	return nil
}

// PackingSum returns Σ_v x_v, the Lemma 2.1 lower bound on OPT.
func PackingSum(x []float64) float64 {
	var s float64
	for _, xv := range x {
		s += xv
	}
	return s
}

// Certificate checks the per-run guarantee w(S) ≤ factor·Σ_v x_v that the
// deterministic algorithms certify (Claim 3.3 / Theorem 1.1's proof).
func Certificate(g *graph.Graph, inSet []bool, x []float64, factor, tol float64) error {
	w := float64(SetWeight(g, inSet))
	bound := factor * PackingSum(x) * (1 + tol)
	if w > bound {
		return fmt.Errorf("verify: certificate violated: w(S)=%g > factor·Σx=%g", w, bound)
	}
	return nil
}

// OutDegreeAtMost checks that the orientation given by out-neighbor lists
// has maximum out-degree ≤ k (Observation 3.5's premise).
func OutDegreeAtMost(out [][]int32, k int) error {
	for v, nb := range out {
		if len(nb) > k {
			return fmt.Errorf("verify: node %d has out-degree %d > %d", v, len(nb), k)
		}
	}
	return nil
}

// FractionalVertexCover checks that y is a feasible fractional vertex cover
// of g: y_u + y_v ≥ 1 for every edge {u,v}, all y ≥ 0. Used by the
// Theorem 1.4 reduction (MDS on H → fractional VC on G).
func FractionalVertexCover(g *graph.Graph, y []float64, tol float64) error {
	if len(y) != g.N() {
		return fmt.Errorf("verify: cover has %d entries for %d nodes", len(y), g.N())
	}
	for v, yv := range y {
		if yv < 0 {
			return fmt.Errorf("verify: negative cover value y[%d]=%g", v, yv)
		}
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u && y[u]+y[int(v)] < 1-tol {
				return fmt.Errorf("verify: edge {%d,%d} uncovered: %g + %g < 1", u, v, y[u], y[int(v)])
			}
		}
	}
	return nil
}

// FractionalValue returns Σ_v y_v.
func FractionalValue(y []float64) float64 { return PackingSum(y) }
