// Package arbods implements the distributed minimum (weighted) dominating
// set algorithms of Dory, Ghaffari, and Ilchi, "Near-Optimal Distributed
// Dominating Set in Bounded Arboricity Graphs" (PODC 2022,
// arXiv:2206.05174), together with the substrates needed to run, verify,
// and benchmark them: a CONGEST/LOCAL round simulator with per-edge
// bandwidth accounting, graph generators for every workload family the
// paper motivates, arboricity machinery, prior-work baselines, and the
// Section 5 lower-bound construction.
//
// # Quick start
//
//	w := arbods.ForestUnion(1000, 3, 42) // α ≤ 3 by construction
//	rep, err := arbods.WeightedDeterministic(w.G, w.ArboricityBound, 0.2,
//		arbods.WithSeed(1))
//	if err != nil { ... }
//	fmt.Println(rep.DSWeight, rep.Rounds(), rep.CertifiedRatio())
//
// Every run returns a Report carrying a dual-packing certificate
// (Lemma 2.1 of the paper): CertifiedRatio() = w(DS)/Σx is an exactly
// checkable upper bound on the true approximation ratio, because Σx ≤ OPT.
//
// # Algorithms
//
//   - UnweightedDeterministic — Theorem 3.1, (2α+1)(1+ε)-approximation in
//     O(log(Δ/α)/ε) CONGEST rounds;
//   - WeightedDeterministic — Theorem 1.1, the weighted version (the first
//     distributed algorithm for weighted MDS on bounded arboricity graphs);
//   - WeightedRandomized — Theorem 1.2, expected (α+O(α/t))-approximation
//     in O(t·log Δ) rounds;
//   - GeneralGraphs — Theorem 1.3, expected O(kΔ^{2/k})-approximation in
//     O(k²) rounds on arbitrary graphs;
//   - PartialDominatingSet — Lemma 4.1 by itself;
//   - UnknownDelta / UnknownAlpha — the Remark 4.4 / 4.5 variants;
//   - TreeThreeApprox — Observation A.1, one-round 3-approximation on
//     forests;
//   - baselines: GreedyCentralized, ExactSmall/ExactForest,
//     LWBucketDeterministic, LRGRandomized.
//
// # Model
//
// Algorithms execute on a simulated synchronous network whose topology is
// the input graph (the CONGEST model of the paper's Section 2). The
// simulator enforces the O(log n)-bit message bound — messages are packed
// wire words (a 4-bit tag plus at most two uint64 payload words) whose bit
// cost is fixed at pack time from per-field accounting, and Strict mode
// fails the run on a budget violation — and reports rounds, message and
// bit counts. A broadcast is queued once and pulled by each receiver as
// it walks its own sorted neighbor list, so the hot path does no
// searching, boxing, or reflection. After a round that used at most a
// sixteenth of the directed edges, only that round's receivers walk their
// neighbor lists, so the many quiet rounds of Theorem 1.2 cost per message,
// not per edge. Runs are deterministic given WithSeed, independent of
// WithWorkers: workers own node ranges, cut by cumulative degree after a
// busy round and by node count after a quiet one, and every inbox comes out
// in exact (sender ID, send index) order because receivers visit their
// neighbors in ID order, so every worker count — including WithWorkers(0),
// which picks adaptively by graph size — produces a bit-identical
// transcript.
//
// # Serving pattern
//
// Run state — the worker pool, the run arenas that per-node state carves
// from, and the outbox records and slabs — lives on a reusable
// Runner. A plain run builds a transient one;
// callers that execute many runs (sweeps, repeated requests, benchmark
// loops) should create one Runner and pass it to every run:
//
//	r := arbods.NewRunner()
//	defer r.Close()
//	for _, seed := range seeds {
//		rep, err := arbods.WeightedDeterministic(g, alpha, eps,
//			arbods.WithSeed(seed), arbods.WithRunner(r))
//		...
//	}
//
// Repeated runs then allocate a constant number of times, whatever n and
// the message volume (the Report and its per-node outputs), and results
// are identical to transient runs. A Report is ordinary heap memory: it
// stays valid after the Runner's next run.
//
// # Batch pattern
//
// A Runner serves one run at a time; sweeps of independent runs scale
// across cores with a RunnerPool and RunBatch. Each Job checks a warmed
// Runner out of the pool, receives the intra-run worker budget
// (GOMAXPROCS split evenly across the pool, so run-level and
// engine-level parallelism never oversubscribe the machine), and writes
// its result into its own submission slot:
//
//	weights := make([]int64, len(seeds))
//	jobs := make([]arbods.Job, len(seeds))
//	for i, seed := range seeds {
//		jobs[i] = func(r *arbods.Runner, workers int) error {
//			rep, err := arbods.WeightedDeterministic(g, alpha, eps,
//				arbods.WithSeed(seed), arbods.WithRunner(r), arbods.WithWorkers(workers))
//			if err != nil { return err }
//			weights[i] = rep.DSWeight
//			return nil
//		}
//	}
//	err := arbods.RunBatch(0, jobs...) // 0 = GOMAXPROCS runs in flight
//
// The determinism contract: transcripts depend only on (graph, seed,
// options), results land in submission slots, and RunBatch reports the
// first error in submission order — so batch results are bit-identical
// to the sequential sweep for every parallelism, including the tables
// cmd/mdsbench -parallel emits. Long-lived services should hold one
// RunnerPool (sized to the concurrent request budget) and create a Batch
// per request wave with RunnerPool.Batch.
//
// # Cancellation
//
// Every run can carry a context: pass WithContext(ctx) as an option (or
// use the RunContext / RunBatchContext spellings, and RunnerPool.GetContext
// for checkouts). The contract is round-granular — the engine checks the
// context exactly once per round, at the synchronous barrier before the
// step phase, so a live context costs one nil comparison per round (no
// allocations, no transcript change) and cancellation lands within one
// round of the deadline. A cancelled run returns ctx.Err() wrapped with
// the round it stopped at, delivers no partial results, and leaves its
// Runner fully reusable: the next run on it is bit-identical to a run on
// a fresh Runner. In a cancelled batch, jobs not yet holding a Runner
// fail with ctx.Err() at their submission slots; jobs already in flight
// run to completion unless they thread the context themselves.
//
// # Serving daemon
//
// cmd/arbods-server packages the serving and batch patterns as a
// long-running HTTP/JSON service (package arbods/internal/server): graphs
// arrive by upload, corpus file, or generator spec and are cached as
// built CSRs under their ID, "sha256:" plus the hex SHA-256 of the
// graph's ARBCSR01 bytes (its one canonical byte form, so a text upload,
// a binary upload and a spec build of one graph share an ID); solves are
// scheduled onto a shared RunnerPool with admission control; and every
// answer carries a verification Receipt — the coverage proof, the packing
// feasibility, and the α-bound ratio check, recomputed from the graph and
// the run.
// Receipts are deterministic per (graph, algorithm, parameters, seed):
// repeating a request returns byte-identical receipt JSON — which is
// what lets the server answer repeat requests from a response-level
// solve cache. Its key holds only the fields the algorithm reads, as
// GET /v1/algorithms lists them, so every seed of a deterministic
// algorithm shares one entry. Solves run under the request
// context (a per-solve deadline or a client disconnect aborts the run at
// its next round barrier and frees the Runner), concurrent cold requests
// for the same graph share one build via singleflight, and /v1/metrics
// exposes latency histograms for the build, queue, solve, and total
// phases. BuildReceipt is the same verification the CLI's -receipt flag
// and the benchmark harness use; Certify is its error-only form. See the
// README "Serving" section and examples/server for the client round trip.
//
// # Fault tolerance
//
// A panicking Proc callback cannot take a serving process down. The
// engine recovers panics on its own goroutines — step, factory, and
// output phases alike — and returns a *ProcPanicError carrying the
// round, the node, the panic value, and the stack; errors.Is(err,
// ErrProcPanic) detects the class. Which panic wins is deterministic
// (the lowest panicking node of the earliest phase), so a panicking run
// fails identically at every worker count. A Runner that hosted a panic
// is poisoned (Runner.Poisoned) and will not run again; RunnerPool.Put
// quarantines poisoned Runners and checks in a fresh replacement —
// RunnerPool.Replaced counts them — so one faulty callback costs one
// request, never the pool.
//
// Graphs survive process death: EncodeGraphBinary / DecodeGraphBinary
// implement the checksummed binary CSR format ("ARBCSR01", little-endian,
// CRC-32C trailer) that graph IDs hash and the server's -data-dir
// persistence is built on. The decoder re-validates structure —
// sortedness, symmetry, weight ranges — and accepts only the one
// canonical encoding of each graph, so a torn or tampered snapshot fails
// loudly instead of serving wrong answers.
//
// WithFaultInjection threads a deterministic failure registry
// (internal/faultinject) into a run for chaos testing: seeded, named
// failpoints fire a panic, an error, or a delay at an exact round, so
// the failure paths above are pinned by ordinary reproducible tests
// (run under the race detector by `make race`) rather than by races. A nil registry is the
// production state and costs one comparison per seam.
//
// # Resilient client
//
// Multiple daemons form a replicated cluster (arbods-server -peers):
// each graph rendezvous-hashes to a fixed set of owner daemons, solves
// are proxied to a healthy owner or served locally when none is left,
// and receipts stay byte-identical no matter which daemon executes —
// determinism is what makes failover invisible. The public client
// package (import "arbods/client", package arbodsclient) is the
// matching way in: it spreads requests over endpoints, retries
// transient failures with capped exponential backoff and full jitter,
// honors Retry-After hints, spends retries from a token budget so a
// client cannot amplify an outage, and trips a per-endpoint circuit
// breaker around dead daemons. With VerifyReceipts it re-verifies every
// answer locally — receipt checks, arithmetic, and a from-scratch
// domination proof against the hash-verified graph — so answers are
// checked, not trusted. See the README "Cluster" section and
// examples/cluster.
package arbods
