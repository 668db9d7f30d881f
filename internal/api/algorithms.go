package api

import (
	"fmt"

	"arbods"
)

// AlgorithmInfo documents one servable algorithm: its name, the request
// parameters it reads, and, in the table, the library entry point those
// parameters map onto (never encoded; decoded infos have none).
//
// Params is the declaration of every request parameter a run reads, by
// its JSON name ("alpha", "eps", "t", "k", "seed"): the seed appears only
// for the algorithms that draw node randomness. Key keeps the declared
// parameters and zeroes the rest, and Run runs with the rest zeroed, so a
// field outside Params never reaches the run and never splits the solve
// cache. TestParamsTruthful holds every entry to its list.
type AlgorithmInfo struct {
	Name        string   `json:"name"`
	Params      []string `json:"params,omitempty"`
	Description string   `json:"description"`
	run         func(g *arbods.Graph, r *SolveRequest, opts []arbods.Option) (*arbods.Report, error)
}

// Algorithms is the table of servable algorithms; its JSON encoding is
// the GET /v1/algorithms body, and its names are what mdsrun -algo takes.
var Algorithms = []AlgorithmInfo{
	{"thm3.1", []string{"alpha", "eps"}, "deterministic (2α+1)(1+ε)-approx, unweighted, O(log(Δ/α)/ε) rounds",
		func(g *arbods.Graph, r *SolveRequest, o []arbods.Option) (*arbods.Report, error) {
			return arbods.UnweightedDeterministic(g, r.Alpha, r.Eps, o...)
		}},
	{"thm1.1", []string{"alpha", "eps"}, "deterministic (2α+1)(1+ε)-approx, weighted, O(log(Δ/α)/ε) rounds",
		func(g *arbods.Graph, r *SolveRequest, o []arbods.Option) (*arbods.Report, error) {
			return arbods.WeightedDeterministic(g, r.Alpha, r.Eps, o...)
		}},
	{"thm1.2", []string{"alpha", "t", "seed"}, "randomized α+O(α/t)-approx in expectation, weighted, O(t·log Δ) rounds",
		func(g *arbods.Graph, r *SolveRequest, o []arbods.Option) (*arbods.Report, error) {
			return arbods.WeightedRandomized(g, r.Alpha, r.T, o...)
		}},
	{"thm1.3", []string{"k", "seed"}, "randomized O(kΔ^{2/k})-approx in expectation, general graphs, O(k²) rounds",
		func(g *arbods.Graph, r *SolveRequest, o []arbods.Option) (*arbods.Report, error) {
			return arbods.GeneralGraphs(g, r.K, o...)
		}},
	{"remark4.4", []string{"alpha", "eps"}, "Theorem 1.1 without global knowledge of Δ",
		func(g *arbods.Graph, r *SolveRequest, o []arbods.Option) (*arbods.Report, error) {
			return arbods.UnknownDelta(g, r.Alpha, r.Eps, o...)
		}},
	{"remark4.5", []string{"eps"}, "Theorem 1.1 without knowledge of α (distributed H-partition estimate)",
		func(g *arbods.Graph, r *SolveRequest, o []arbods.Option) (*arbods.Report, error) {
			return arbods.UnknownAlpha(g, r.Eps, o...)
		}},
	{"tree", nil, "Observation A.1: one-round 3-approx on forests",
		func(g *arbods.Graph, _ *SolveRequest, o []arbods.Option) (*arbods.Report, error) {
			return arbods.TreeThreeApprox(g, o...)
		}},
	{"lw", nil, "Lenzen–Wattenhofer bucket greedy baseline, unweighted",
		func(g *arbods.Graph, _ *SolveRequest, o []arbods.Option) (*arbods.Report, error) {
			return arbods.LWBucketDeterministic(g, o...)
		}},
	{"lrg", []string{"seed"}, "Jia–Rajaraman–Suel local randomized greedy baseline, unweighted",
		func(g *arbods.Graph, _ *SolveRequest, o []arbods.Option) (*arbods.Report, error) {
			return arbods.LRGRandomized(g, o...)
		}},
	{"kw05", []string{"k", "seed"}, "Kuhn–Wattenhofer fractional+rounding baseline, unweighted",
		func(g *arbods.Graph, r *SolveRequest, o []arbods.Option) (*arbods.Report, error) {
			rep, _, err := arbods.KW05(g, r.K, o...)
			return rep, err
		}},
}

// Options turns the request's engine fields into engine options: the
// seed, the communication model unless it is the default congest, and
// the round cap when one is set. An unknown mode is an error.
func Options(r *SolveRequest) ([]arbods.Option, error) {
	opts := []arbods.Option{arbods.WithSeed(r.Seed)}
	switch r.Mode {
	case "", "congest":
	case "audit":
		opts = append(opts, arbods.WithMode(arbods.CongestAudit))
	case "local":
		opts = append(opts, arbods.WithMode(arbods.Local))
	default:
		return nil, fmt.Errorf("unknown mode %q (congest, audit, local)", r.Mode)
	}
	if r.MaxRounds > 0 {
		opts = append(opts, arbods.WithMaxRounds(r.MaxRounds))
	}
	return opts, nil
}

// runFields returns r with every parameter its algorithm does not
// declare in Params zeroed; an unknown algorithm keeps them all. The
// graph, algorithm, mode, round cap and presentation fields always stay.
func runFields(r SolveRequest) SolveRequest {
	a := lookup(r.Algorithm)
	if a == nil {
		return r
	}
	out := r
	out.Alpha, out.Eps, out.T, out.K, out.Seed = 0, 0, 0, 0, 0
	for _, p := range a.Params {
		switch p {
		case "alpha":
			out.Alpha = r.Alpha
		case "eps":
			out.Eps = r.Eps
		case "t":
			out.T = r.T
		case "k":
			out.K = r.K
		case "seed":
			out.Seed = r.Seed
		}
	}
	return out
}

// lookup returns the table entry named name, or nil.
func lookup(name string) *AlgorithmInfo {
	for i := range Algorithms {
		if Algorithms[i].Name == name {
			return &Algorithms[i]
		}
	}
	return nil
}

// Run executes the normalized request on g: the table's algorithm with
// the parameters it declares, under the request's Options followed by
// opts (context, Runner, workers — whatever the caller adds). The
// undeclared parameters are zeroed first, as Key zeroes them, so a cached
// answer is by construction what a run of its key returns.
func Run(g *arbods.Graph, r *SolveRequest, opts ...arbods.Option) (*arbods.Report, error) {
	run := runFields(*r)
	all, err := Options(&run)
	if err != nil {
		return nil, err
	}
	a := lookup(run.Algorithm)
	if a == nil {
		return nil, fmt.Errorf("unknown algorithm %q (see GET /v1/algorithms)", r.Algorithm)
	}
	return a.run(g, &run, append(all, opts...))
}
