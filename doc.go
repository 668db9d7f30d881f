// Package arbods implements the distributed minimum (weighted) dominating
// set algorithms of Dory, Ghaffari, and Ilchi, "Near-Optimal Distributed
// Dominating Set in Bounded Arboricity Graphs" (PODC 2022,
// arXiv:2206.05174), together with the substrates needed to run, verify,
// and benchmark them: a CONGEST/LOCAL round simulator with per-edge
// bandwidth accounting, graph generators, arboricity bounds, prior-work
// baselines, and the Section 5 lower-bound construction.
//
// # Quick start
//
//	w := arbods.ForestUnion(1000, 3, 42) // α ≤ 3 by construction
//	rep, err := arbods.WeightedDeterministic(w.G, w.ArboricityBound, 0.2,
//		arbods.WithSeed(1))
//	if err != nil { ... }
//	fmt.Println(rep.DSWeight, rep.Rounds(), rep.CertifiedRatio())
//
// # Algorithms
//
//   - UnweightedDeterministic — Theorem 3.1, (2α+1)(1+ε)-approximation in
//     O(log(Δ/α)/ε) CONGEST rounds;
//   - WeightedDeterministic — Theorem 1.1, the weighted version;
//   - WeightedRandomized — Theorem 1.2, expected (α+O(α/t))-approximation
//     in O(t·log Δ) rounds;
//   - GeneralGraphs — Theorem 1.3, expected O(kΔ^{2/k})-approximation in
//     O(k²) rounds on arbitrary graphs;
//   - PartialDominatingSet — Lemma 4.1 by itself;
//   - UnknownDelta / UnknownAlpha — the Remark 4.4 / 4.5 variants;
//   - TreeThreeApprox — Observation A.1 on forests;
//   - baselines: GreedyCentralized, ExactSmall/ExactForest,
//     LWBucketDeterministic, LRGRandomized, KW05.
//
// # Contracts
//
// Certificates. Every Report carries a dual packing x (Lemma 2.1):
// Σx ≤ OPT, so CertifiedRatio() = w(DS)/Σx is an exactly checkable upper
// bound on the true approximation ratio. BuildReceipt re-derives the
// domination proof, the packing feasibility and, for deterministic
// algorithms, w(DS) ≤ Factor·Σx from the graph and the report; Certify is
// its error-only form.
//
// Determinism. A run's transcript, and so its Report and Receipt, depends
// only on (graph, algorithm, parameters, seed). It is bit-identical at
// every WithWorkers value, on a transient or a reused Runner, and inside
// a batch at any parallelism. Receipts encode to byte-identical JSON.
//
// The model. Messages are packed wire words whose CONGEST bit cost is
// fixed at pack time; Congest mode fails a run that exceeds the
// O(log n)-bit budget, CongestAudit records the violation, Local lifts
// the limit.
//
// Runners. A Runner holds reusable run state and serves one run at a
// time; a Report stays valid after the Runner's next run. A RunnerPool
// bounds the runs in flight and splits GOMAXPROCS across them (Workers);
// RunBatch and RunnerPool.Batch land each Job's result in its submission
// slot and report the first error in submission order.
//
// Cancellation. WithContext(ctx) is checked once per round, so a canceled
// run returns ctx.Err() within one round, with no partial results, and
// its Runner stays reusable. RunnerPool.GetContext prefers a free Runner
// to a dead context and fails with ErrPoolClosed once the pool is closed.
//
// Fault tolerance. A panicking callback fails its own run with a
// *ProcPanicError (errors.Is(err, ErrProcPanic)), chosen deterministically
// at every worker count. The Runner that hosted it is poisoned, and
// RunnerPool.Put replaces it. WithFaultInjection arms seeded failpoints
// for chaos tests. EncodeGraphBinary writes the checksummed ARBCSR01
// form that graph IDs hash, and DecodeGraphBinary accepts only that
// canonical form.
//
// README describes the engine's internals, the arbods-server daemon, the
// replicated cluster and the arbods/client failover client; examples/
// holds a runnable program for each pattern.
package arbods
