package mds

import (
	"fmt"
	"math"

	"arbods/internal/congest"
	"arbods/internal/graph"
)

// Report summarizes one algorithm run: the dominating set, its weight, the
// packing certificate, and the simulator transcript statistics.
type Report struct {
	// Algorithm names the algorithm, e.g. "weighted-deterministic".
	Algorithm string
	// Result is the raw simulator result with per-node outputs.
	Result *congest.Result[Output]

	// DS lists the dominating set members in increasing ID order.
	DS []int
	// DSWeight is w(S ∪ S′).
	DSWeight int64
	// PartialWeight is w(S), the Lemma 4.1 part.
	PartialWeight int64
	// ExtensionWeight is w(S′), the completion/extension part.
	ExtensionWeight int64
	// PackingSum is Σ_v x_v over the certified (feasible) packing; by
	// Lemma 2.1 it lower-bounds OPT.
	PackingSum float64
	// AllDominated reports whether every node ended dominated (must hold
	// whenever the algorithm's guarantee applies).
	AllDominated bool

	// Factor is the deterministic per-run guarantee: DSWeight ≤
	// Factor·PackingSum is certified for deterministic algorithms.
	// Zero when the algorithm's bound is in expectation only.
	Factor float64
	// ExpectedFactor is the analytic expected approximation bound for
	// randomized algorithms (zero otherwise).
	ExpectedFactor float64

	// Parameters used by the run.
	Eps, Lambda, Gamma float64
	Alpha, T, K        int
}

// CertifiedRatio returns DSWeight/PackingSum, an exactly checkable upper
// bound on the true approximation ratio (PackingSum ≤ OPT). Returns +Inf
// when the packing sum is zero (empty graph).
func (r *Report) CertifiedRatio() float64 {
	if r.PackingSum <= 0 {
		return math.Inf(1)
	}
	return float64(r.DSWeight) / r.PackingSum
}

// Rounds returns the number of simulated rounds.
func (r *Report) Rounds() int { return r.Result.Rounds }

// Messages returns the number of delivered messages.
func (r *Report) Messages() int64 { return r.Result.Messages }

// NewReport assembles a Report from a raw simulator result. It is exported
// for sibling packages (e.g. internal/baseline) whose algorithms share the
// Output type.
func NewReport(name string, res *congest.Result[Output], g *graph.Graph) *Report {
	return buildReport(name, res, g)
}

func buildReport(name string, res *congest.Result[Output], g *graph.Graph) *Report {
	rep := &Report{Algorithm: name, Result: res, AllDominated: true}
	// Count the members first, so DS is allocated once at its final size
	// instead of regrown while the run's outputs are live. DS stays nil for
	// an empty set.
	members := 0
	for _, out := range res.Outputs {
		if out.InDS {
			members++
		}
	}
	if members > 0 {
		rep.DS = make([]int, 0, members)
	}
	for v, out := range res.Outputs {
		if out.InDS {
			rep.DS = append(rep.DS, v)
			rep.DSWeight += g.Weight(v)
		}
		if out.InPartial {
			rep.PartialWeight += g.Weight(v)
		}
		if out.InExtension && !out.InPartial {
			rep.ExtensionWeight += g.Weight(v)
		}
		if !out.Dominated {
			rep.AllDominated = false
		}
		rep.PackingSum += out.Packing
	}
	return rep
}

func validateEps(eps float64) error {
	if !(eps > 0 && eps < 1) {
		return fmt.Errorf("mds: ε must be in (0,1), got %g", eps)
	}
	return nil
}

func validateAlpha(alpha int) error {
	if alpha < 1 {
		return fmt.Errorf("mds: arboricity bound must be ≥ 1, got %d", alpha)
	}
	return nil
}

// UnweightedDeterministic runs the Section 3 algorithm (Theorem 3.1): a
// deterministic (2α+1)(1+ε)-approximation of minimum dominating set on
// unweighted graphs with arboricity ≤ alpha, in O(log(Δ/α)/ε) rounds.
// Undominated nodes add themselves (the set T of Claim 3.3).
func UnweightedDeterministic(g *graph.Graph, alpha int, eps float64, opts ...congest.Option) (*Report, error) {
	if err := validateEps(eps); err != nil {
		return nil, err
	}
	if err := validateAlpha(alpha); err != nil {
		return nil, err
	}
	if !g.Unweighted() {
		return nil, fmt.Errorf("mds: UnweightedDeterministic requires unit weights; use WeightedDeterministic")
	}
	lambda := 1 / (float64(2*alpha+1) * (1 + eps))
	params := detParams{eps: eps, lambda: lambda, mode: completeSelf}
	res, err := run(g, params, alpha, opts)
	if err != nil {
		return nil, err
	}
	rep := buildReport("unweighted-deterministic", res, g)
	rep.Factor = float64(2*alpha+1) * (1 + eps)
	rep.Eps, rep.Lambda, rep.Alpha = eps, lambda, alpha
	return rep, nil
}

// WeightedDeterministic runs the Theorem 1.1 algorithm: a deterministic
// (2α+1)(1+ε)-approximation of minimum *weighted* dominating set on graphs
// with arboricity ≤ alpha, in O(log(Δ/α)/ε) rounds. It composes Lemma 4.1
// with λ = 1/((2α+1)(1+ε)) and the τ-completion step.
func WeightedDeterministic(g *graph.Graph, alpha int, eps float64, opts ...congest.Option) (*Report, error) {
	if err := validateEps(eps); err != nil {
		return nil, err
	}
	if err := validateAlpha(alpha); err != nil {
		return nil, err
	}
	lambda := 1 / (float64(2*alpha+1) * (1 + eps))
	params := detParams{eps: eps, lambda: lambda, mode: completeRequest}
	res, err := run(g, params, alpha, opts)
	if err != nil {
		return nil, err
	}
	rep := buildReport("weighted-deterministic", res, g)
	rep.Factor = float64(2*alpha+1) * (1 + eps)
	rep.Eps, rep.Lambda, rep.Alpha = eps, lambda, alpha
	return rep, nil
}

// PartialWeighted runs Lemma 4.1 alone: it returns the partial dominating
// set S and packing values satisfying properties (a) and (b) of the lemma,
// leaving the remaining nodes undominated. Requires 0 < λ < 1/((α+1)(1+ε)).
func PartialWeighted(g *graph.Graph, alpha int, eps, lambda float64, opts ...congest.Option) (*Report, error) {
	if err := validateEps(eps); err != nil {
		return nil, err
	}
	if err := validateAlpha(alpha); err != nil {
		return nil, err
	}
	if !(lambda > 0 && lambda < 1/(float64(alpha+1)*(1+eps))) {
		return nil, fmt.Errorf("mds: λ=%g outside (0, 1/((α+1)(1+ε)))", lambda)
	}
	params := detParams{eps: eps, lambda: lambda, mode: completeNone}
	res, err := run(g, params, alpha, opts)
	if err != nil {
		return nil, err
	}
	rep := buildReport("partial-weighted", res, g)
	rep.Eps, rep.Lambda, rep.Alpha = eps, lambda, alpha
	return rep, nil
}

// PartialFactor returns the property-(a) constant α·(1/(1+ε) − λ(α+1))⁻¹:
// w(S) is at most that times Σ_{v∈N+(S)} x_v.
func PartialFactor(alpha int, eps, lambda float64) float64 {
	return float64(alpha) / (1/(1+eps) - lambda*float64(alpha+1))
}

// TruncatedUnweighted runs the Section 3 partial phase for exactly iters
// iterations and then adds all still-undominated nodes. It deliberately
// breaks the iteration-count formula to expose the locality phenomenon of
// Theorem 1.4: with too few rounds the packing values of undominated nodes
// stay small and the self-completion step balloons, so the approximation
// ratio degrades as rounds shrink. The output is always a valid dominating
// set with a feasible packing; only the ratio guarantee is forfeited.
func TruncatedUnweighted(g *graph.Graph, alpha int, eps float64, iters int, opts ...congest.Option) (*Report, error) {
	if err := validateEps(eps); err != nil {
		return nil, err
	}
	if err := validateAlpha(alpha); err != nil {
		return nil, err
	}
	if iters < 1 {
		return nil, fmt.Errorf("mds: iters must be ≥ 1, got %d", iters)
	}
	if !g.Unweighted() {
		return nil, fmt.Errorf("mds: TruncatedUnweighted requires unit weights")
	}
	lambda := 1 / (float64(2*alpha+1) * (1 + eps))
	params := detParams{eps: eps, lambda: lambda, mode: completeSelf, forceIters: iters}
	res, err := run(g, params, alpha, opts)
	if err != nil {
		return nil, err
	}
	rep := buildReport("truncated-unweighted", res, g)
	rep.Eps, rep.Lambda, rep.Alpha = eps, lambda, alpha
	return rep, nil
}

// AblationNoFreeze runs the Theorem 1.1 algorithm with the
// freeze-on-domination rule disabled: dominated nodes keep raising their
// packing values. This is NOT the paper's algorithm — it exists to
// demonstrate, in experiment E9, that the freeze is load-bearing: without
// it the packing becomes infeasible (X_u > w_u), Σx stops lower-bounding
// OPT, and the approximation certificate collapses. The returned set is
// still a valid dominating set.
func AblationNoFreeze(g *graph.Graph, alpha int, eps float64, opts ...congest.Option) (*Report, error) {
	if err := validateEps(eps); err != nil {
		return nil, err
	}
	if err := validateAlpha(alpha); err != nil {
		return nil, err
	}
	lambda := 1 / (float64(2*alpha+1) * (1 + eps))
	params := detParams{eps: eps, lambda: lambda, mode: completeRequest, noFreeze: true}
	res, err := run(g, params, alpha, opts)
	if err != nil {
		return nil, err
	}
	rep := buildReport("ablation-no-freeze", res, g)
	rep.Eps, rep.Lambda, rep.Alpha = eps, lambda, alpha
	return rep, nil
}

// WeightedRandomized runs the Theorem 1.2 algorithm: a randomized algorithm
// with expected approximation factor α + O(α/t) in O(t·log Δ) rounds, for
// 1 ≤ t ≤ α/log α. It composes Lemma 4.1 (ε = 1/(4t), λ = ε/(α+1)) with the
// Lemma 4.6 extension (γ = max(2, α^{1/(2t)})).
func WeightedRandomized(g *graph.Graph, alpha, t int, opts ...congest.Option) (*Report, error) {
	if err := validateAlpha(alpha); err != nil {
		return nil, err
	}
	if t < 1 {
		return nil, fmt.Errorf("mds: t must be ≥ 1, got %d", t)
	}
	eps := 1 / float64(4*t)
	lambda := eps / float64(alpha+1)
	gamma := math.Max(2, math.Pow(float64(alpha), 1/float64(2*t)))
	params := detParams{eps: eps, lambda: lambda, gamma: gamma, mode: completeExtension}
	res, err := run(g, params, alpha, opts)
	if err != nil {
		return nil, err
	}
	rep := buildReport("weighted-randomized", res, g)
	rep.Eps, rep.Lambda, rep.Gamma, rep.Alpha, rep.T = eps, lambda, gamma, alpha, t
	// E[w(S∪S′)] ≤ w(S)-bound + E[w(S′)]-bound (proof of Theorem 1.2).
	phases := extensionPhases(gamma, lambda)
	rep.ExpectedFactor = PartialFactor(alpha, eps, lambda) + gamma*(gamma+1)*float64(phases)
	return rep, nil
}

// GeneralGraphs runs the Theorem 1.3 algorithm on arbitrary graphs: a
// randomized weighted dominating set with expected approximation factor
// Δ^{1/k}(Δ^{1/k}+1)(k+1) = O(kΔ^{2/k}) in O(k²) rounds. It is Lemma 4.6
// with S = ∅, λ = 1/(Δ+1), and γ = Δ^{1/k}.
func GeneralGraphs(g *graph.Graph, k int, opts ...congest.Option) (*Report, error) {
	if k < 1 {
		return nil, fmt.Errorf("mds: k must be ≥ 1, got %d", k)
	}
	delta := g.MaxDegree()
	gamma := math.Pow(float64(delta+1), 1/float64(k))
	if delta == 0 {
		// Edgeless graph: every node must dominate itself; a single
		// probability-1 sampling phase with any γ > 1 does exactly that.
		gamma = 2
	}
	if gamma < 1.05 {
		return nil, fmt.Errorf("mds: Δ^{1/k}=%.3f too close to 1 (Δ=%d, k=%d); decrease k", gamma, delta, k)
	}
	lambda := 1 / float64(delta+1)
	params := detParams{eps: 0.5, lambda: lambda, gamma: gamma, mode: completeExtension, skipPartial: true}
	res, err := run(g, params, 0, opts)
	if err != nil {
		return nil, err
	}
	rep := buildReport("general-graphs", res, g)
	rep.Lambda, rep.Gamma, rep.K = lambda, gamma, k
	phases := extensionPhases(gamma, lambda)
	rep.ExpectedFactor = gamma * (gamma + 1) * float64(phases)
	return rep, nil
}

// run wires a detParams proc into the simulator with the globally known
// parameters the paper assumes (Δ, and α when relevant). Procs are
// constructed in place in one slab — a single allocation for all n nodes —
// with their neighbor caches carved from the run's arena; an extension run
// adds one more slab for the nodes' extension state.
func run(g *graph.Graph, params detParams, alpha int, opts []congest.Option) (*congest.Result[Output], error) {
	all := make([]congest.Option, 0, len(opts)+2)
	all = append(all, opts...)
	all = append(all, congest.WithKnownMaxDegree())
	if alpha > 0 {
		all = append(all, congest.WithKnownArboricity(alpha))
	}
	switch {
	case params.skipPartial:
		params.r = 0
	case params.forceIters > 0:
		params.r = params.forceIters
	default:
		params.r = partialIterations(params.eps, params.lambda, g.MaxDegree())
	}
	params.pow = newPowTable(1+params.eps, params.r+1)
	params.delta = g.MaxDegree()
	if params.mode == completeExtension {
		params.extStart = 2*params.r + 2 // weight exchange, setup, r two-round iterations
		params.extIters = extensionIterations(params.gamma, params.delta)
		params.extPhases = extensionPhases(params.gamma, params.lambda)
		params.ext = make([]extState, g.N())
	}
	slab := make([]proc, g.N())
	factory := func(ni congest.NodeInfo) congest.Proc[Output] {
		pr := &slab[ni.ID]
		pr.init(&params, ni)
		if wrapProc != nil {
			return wrapProc(pr)
		}
		return pr
	}
	return congest.Run(g, factory, all...)
}

// wrapProc, when set, wraps every proc run builds. Only tests set it: they
// run the shipped procs with every sleep cancelled, the reference that a
// run whose nodes sleep must equal.
var wrapProc func(congest.Proc[Output]) congest.Proc[Output]
