package bench

import (
	"fmt"
	"sort"

	"arbods/internal/baseline"
	"arbods/internal/congest"
	"arbods/internal/gen"
	"arbods/internal/graph"
	"arbods/internal/mds"
	"arbods/internal/verify"
)

// E8UnknownParams regenerates the Remark 4.4/4.5 comparison: what dropping
// global knowledge of Δ (and of α) costs in rounds and approximation,
// against the known-parameter Theorem 1.1 run on the same instance.
func E8UnknownParams(cfg Config) ([]*Table, error) {
	const alpha = 3
	n := cfg.pick(250, 1500)
	w := gen.ForestUnion(n, alpha, cfg.Seed)
	g := gen.UniformWeights(w.G, 100, cfg.Seed+1)
	eps := 0.2
	t := &Table{
		ID:       "E8",
		Title:    fmt.Sprintf("knowledge assumptions on %s (α=%d, Δ=%d)", w.Name, alpha, g.MaxDegree()),
		PaperRef: "Remarks 4.4 (unknown Δ) and 4.5 (unknown α)",
		Columns:  []string{"variant", "knows", "rounds", "messages", "certified ratio", "certificate factor"},
		Notes: []string{
			"Remark 4.5's orientation prefix uses doubling estimates on a fixed schedule: O(log α·log n/ε) rounds versus the remark's O(log n/ε) sketch; its certificate factor is per-node and therefore not a single number.",
		},
	}
	known, err := mds.WeightedDeterministic(g, alpha, eps, cfg.opts(cfg.Seed)...)
	if err != nil {
		return nil, err
	}
	t.AddRow("Theorem 1.1", "n, Δ, α", fmtI(known.Rounds()), fmtI64(known.Messages()),
		fmtF(known.CertifiedRatio()), fmtF(known.Factor))
	ud, err := mds.UnknownDelta(g, alpha, eps, cfg.opts(cfg.Seed)...)
	if err != nil {
		return nil, err
	}
	t.AddRow("Remark 4.4", "n, α", fmtI(ud.Rounds()), fmtI64(ud.Messages()),
		fmtF(ud.CertifiedRatio()), fmtF(ud.Factor))
	ua, err := mds.UnknownAlpha(g, eps, cfg.opts(cfg.Seed)...)
	if err != nil {
		return nil, err
	}
	t.AddRow("Remark 4.5", "n", fmtI(ua.Rounds()), fmtI64(ua.Messages()),
		fmtF(ua.CertifiedRatio()), "per-node")
	for _, rep := range []*mds.Report{known, ud, ua} {
		if !rep.AllDominated {
			return nil, fmt.Errorf("E8: %s left nodes undominated", rep.Algorithm)
		}
	}
	return []*Table{t}, nil
}

// E9Ablations regenerates the ablations of the algorithms' design choices
// and the CONGEST accounting of their runs:
//
//   - E9a: the λ knob inside Lemma 4.1 — smaller λ stops the packing phase
//     earlier, shrinking the partial set S and leaving more nodes for the
//     completion/extension (the split Theorem 1.2 exploits);
//   - E9b: the freeze-on-domination rule — without it the packing loses
//     feasibility and the Lemma 2.1 certificate collapses;
//   - E9c: CONGEST compliance — per algorithm, the peak per-edge-per-round
//     bit volume against the O(log n) budget the simulator enforces.
func E9Ablations(cfg Config) ([]*Table, error) {
	const alpha = 3
	n := cfg.pick(250, 1500)
	w := gen.ForestUnion(n, alpha, cfg.Seed)
	g := gen.UniformWeights(w.G, 100, cfg.Seed+1)
	eps := 0.25

	// --- E9a: λ sweep ---
	ta := &Table{
		ID:       "E9a",
		Title:    "Lemma 4.1 λ sweep: partial set vs leftover",
		PaperRef: "Lemma 4.1 properties (a)/(b); the S vs S′ split of Theorems 1.1/1.2",
		Columns:  []string{"λ / λmax", "iterations≈rounds/2", "w(S)/Σx", "undominated nodes", "property-(a) factor"},
	}
	lambdaMax := 1 / (float64(alpha+1) * (1 + eps))
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.8, 0.95} {
		lambda := frac * lambdaMax
		rep, err := mds.PartialWeighted(g, alpha, eps, lambda, cfg.opts(cfg.Seed)...)
		if err != nil {
			return nil, err
		}
		und := 0
		for _, out := range rep.Result.Outputs {
			if !out.Dominated {
				und++
			}
		}
		ta.AddRow(fmtF(frac), fmtI(rep.Rounds()/2),
			fmtF(float64(rep.PartialWeight)/rep.PackingSum), fmtI(und),
			fmtF(mds.PartialFactor(alpha, eps, lambda)))
	}

	// --- E9b: freeze ablation ---
	tb := &Table{
		ID:       "E9b",
		Title:    "freeze-on-domination ablation",
		PaperRef: "Section 3/4 step 3 (only undominated nodes raise x) and Observation 4.2",
		Columns:  []string{"variant", "packing feasible", "Σx", "w(DS)", "w(DS)/Σx", "Σx ≤ OPT valid"},
		Notes: []string{
			"without the freeze, Σx can exceed OPT, so w/Σx is no longer an upper bound on the true approximation ratio.",
		},
	}
	normal, err := mds.WeightedDeterministic(g, alpha, eps, cfg.opts(cfg.Seed)...)
	if err != nil {
		return nil, err
	}
	frozen := packingOf(normal)
	tb.AddRow("paper (freeze)", boolCell(verify.PackingFeasible(g, frozen, verify.DefaultTol) == nil),
		fmtF(normal.PackingSum), fmtI64(normal.DSWeight), fmtF(normal.CertifiedRatio()), "yes (Lemma 2.1)")
	noFreeze, err := mds.AblationNoFreeze(g, alpha, eps, cfg.opts(cfg.Seed)...)
	if err != nil {
		return nil, err
	}
	nfPacking := packingOf(noFreeze)
	nfFeasible := verify.PackingFeasible(g, nfPacking, verify.DefaultTol) == nil
	tb.AddRow("no freeze (ablation)", boolCell(nfFeasible),
		fmtF(noFreeze.PackingSum), fmtI64(noFreeze.DSWeight), fmtF(noFreeze.CertifiedRatio()),
		boolCell(nfFeasible))

	// --- E9c: CONGEST compliance ---
	tc := &Table{
		ID:       "E9c",
		Title:    fmt.Sprintf("CONGEST bandwidth accounting (budget %d bits)", congest.DefaultBandwidth(g.N())),
		PaperRef: "Section 2 model: O(log n)-bit messages",
		Columns:  []string{"algorithm", "rounds", "messages", "total bits", "peak bits/edge/round", "violations"},
	}
	addCompliance := func(name string, rep *mds.Report) {
		tc.AddRow(name, fmtI(rep.Rounds()), fmtI64(rep.Messages()),
			fmtI64(rep.Result.TotalBits), fmtI(rep.Result.MaxEdgeBits),
			fmtI64(rep.Result.BandwidthViolations))
	}
	addCompliance("Theorem 1.1", normal)
	rand12, err := mds.WeightedRandomized(g, alpha, 2, cfg.opts(cfg.Seed)...)
	if err != nil {
		return nil, err
	}
	addCompliance("Theorem 1.2 (t=2)", rand12)
	gg, err := mds.GeneralGraphs(g, 2, cfg.opts(cfg.Seed)...)
	if err != nil {
		return nil, err
	}
	addCompliance("Theorem 1.3 (k=2)", gg)
	ud, err := mds.UnknownDelta(g, alpha, eps, cfg.opts(cfg.Seed)...)
	if err != nil {
		return nil, err
	}
	addCompliance("Remark 4.4", ud)

	// --- E9d: message breakdown of one Theorem 1.2 run ---
	td := &Table{
		ID:       "E9d",
		Title:    "message breakdown (Theorem 1.2, t=2)",
		PaperRef: "Section 2 model; which messages carry the algorithm",
		Columns:  []string{"message type", "count", "total bits", "avg bits"},
		Notes: []string{
			"packing values travel as (τ, exponent) integer pairs, not reals — the reason every message fits the O(log n) budget.",
		},
	}
	traced, err := mds.WeightedRandomized(g, alpha, 2,
		cfg.opts(cfg.Seed, congest.WithMessageStats())...)
	if err != nil {
		return nil, err
	}
	types := make([]string, 0, len(traced.Result.MessageStats))
	for k := range traced.Result.MessageStats {
		types = append(types, k)
	}
	sort.Strings(types)
	for _, k := range types {
		st := traced.Result.MessageStats[k]
		td.AddRow(k, fmtI64(st.Count), fmtI64(st.Bits),
			fmtF(float64(st.Bits)/float64(st.Count)))
	}

	// --- E9e: Lemma 4.7 diagnostic — mean c_v vs the γ+1 bound ---
	te := &Table{
		ID:       "E9e",
		Title:    "Lemma 4.7 diagnostic: sampled dominators per covered node",
		PaperRef: "Lemma 4.7: E[c_v] ≤ γ+1 (the expectation bound behind Lemma 4.8)",
		Columns:  []string{"algorithm", "γ", "bound γ+1", "mean c_v", "max c_v", "nodes covered by extension (mean per run)"},
	}
	e9algos := []struct {
		name string
		run  func(seed uint64, slot []congest.Option) (*mds.Report, error)
	}{
		{"Theorem 1.2 (t=2)", func(seed uint64, slot []congest.Option) (*mds.Report, error) {
			return mds.WeightedRandomized(g, alpha, 2, cfg.optsOn(slot, seed)...)
		}},
		{"Theorem 1.3 (k=2)", func(seed uint64, slot []congest.Option) (*mds.Report, error) {
			return mds.GeneralGraphs(g, 2, cfg.optsOn(slot, seed)...)
		}},
	}
	// Every repetition of both algorithms is independent: one batch, slot
	// = (algorithm, repetition), aggregated in slot order below.
	nreps := cfg.reps() * 2
	e9runs := make([]*mds.Report, len(e9algos)*nreps)
	if err := cfg.batch(len(e9runs), func(i int, slot []congest.Option) error {
		rep := i % nreps
		r, err := e9algos[i/nreps].run(cfg.Seed+uint64(313*rep), slot)
		e9runs[i] = r
		return err
	}); err != nil {
		return nil, err
	}
	for ai, tt := range e9algos {
		var total, count float64
		maxCV := 0
		var gamma float64
		for _, r := range e9runs[ai*nreps : (ai+1)*nreps] {
			gamma = r.Gamma
			for _, out := range r.Result.Outputs {
				if out.SampledDominators > 0 {
					total += float64(out.SampledDominators)
					count++
					if out.SampledDominators > maxCV {
						maxCV = out.SampledDominators
					}
				}
			}
		}
		meanCV := 0.0
		if count > 0 {
			meanCV = total / count
		}
		te.AddRow(tt.name, fmtF(gamma), fmtF(gamma+1), fmtF(meanCV), fmtI(maxCV),
			fmtF(count/float64(nreps)))
	}

	return []*Table{ta, tb, tc, td, te}, nil
}

func packingOf(rep *mds.Report) []float64 {
	x := make([]float64, len(rep.Result.Outputs))
	for v, out := range rep.Result.Outputs {
		x[v] = out.Packing
	}
	return x
}

// E10Weighted regenerates the weighted-problem claim of Theorem 1.1 (the
// first distributed algorithm for weighted MDS on bounded arboricity
// graphs): across weight regimes the certified ratio stays under
// (2α+1)(1+ε), with the centralized greedy for quality reference.
func E10Weighted(cfg Config) ([]*Table, error) {
	const alpha = 3
	n := cfg.pick(300, 2500)
	base := gen.ForestUnion(n, alpha, cfg.Seed)
	eps := 0.2
	t := &Table{
		ID:       "E10",
		Title:    fmt.Sprintf("weight regimes on %s (α=%d)", base.Name, alpha),
		PaperRef: "Theorem 1.1 (weighted MDS); §1.2 “first distributed algorithm for the weighted version”",
		Columns:  []string{"weights", "bound", "certified ratio", "w(DS)", "w(greedy)", "rounds"},
	}
	regimes := []struct {
		name string
		g    *graph.Graph
	}{
		{"unit", base.G},
		{"uniform[1,1000]", gen.UniformWeights(base.G, 1000, cfg.Seed+2)},
		{"exponential(100)", gen.ExponentialWeights(base.G, 100, cfg.Seed+3)},
		{"degree-proportional", gen.DegreeWeights(base.G, 10, cfg.Seed+4)},
	}
	for _, rg := range regimes {
		rep, err := mds.WeightedDeterministic(rg.g, alpha, eps, cfg.opts(cfg.Seed)...)
		if err != nil {
			return nil, err
		}
		if rep.CertifiedRatio() > rep.Factor*(1+1e-9) {
			return nil, fmt.Errorf("E10: bound violated on %s", rg.name)
		}
		gr := baseline.Greedy(rg.g)
		t.AddRow(rg.name, fmtF(rep.Factor), fmtF(rep.CertifiedRatio()),
			fmtI64(rep.DSWeight), fmtI64(gr.Weight), fmtI(rep.Rounds()))
	}
	return []*Table{t}, nil
}
