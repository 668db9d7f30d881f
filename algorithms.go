package arbods

import (
	"arbods/internal/baseline"
	"arbods/internal/congest"
	"arbods/internal/lower"
	"arbods/internal/mds"
)

// Report summarizes one algorithm run: the dominating set, its weight, the
// dual-packing certificate, and simulator statistics. See CertifiedRatio.
type Report = mds.Report

// NodeOutput is the per-node result inside Report.Result.Outputs.
type NodeOutput = mds.Output

// Result is the raw simulator outcome inside Report.Result: per-node
// outputs plus the transcript statistics (rounds, messages, bits,
// bandwidth accounting).
type Result = congest.Result[NodeOutput]

// RoundStat is one round's traffic, recorded by WithRoundStats and
// streamed live by WithRoundObserver.
type RoundStat = congest.RoundStat

// MessageStat aggregates one message type's traffic inside
// Report.Result.MessageStats (recorded by WithMessageStats).
type MessageStat = congest.MessageStat

// Option configures a run (seed, workers, communication model, …).
type Option = congest.Option

// Mode selects the communication model for WithMode.
type Mode = congest.Mode

// Communication models: Congest enforces the O(log n)-bit budget strictly,
// CongestAudit records violations without failing, Local lifts the limit.
const (
	Congest      = congest.Congest
	CongestAudit = congest.CongestAudit
	Local        = congest.Local
)

// WithSeed sets the run seed for all per-node randomness.
func WithSeed(seed uint64) Option { return congest.WithSeed(seed) }

// WithWorkers sets the simulator's goroutine count, clamped to the node
// count (1 = sequential engine). Without it, or below 1, the Runner
// picks: one worker below 16384 nodes, its CPU share from there — all of
// GOMAXPROCS, or a RunnerPool's split. Results are bit-identical for any
// value.
func WithWorkers(w int) Option { return congest.WithWorkers(w) }

// WithMode selects the communication model (default Congest).
func WithMode(m Mode) Option { return congest.WithMode(m) }

// WithBandwidth overrides the per-edge per-round bit budget.
func WithBandwidth(bits int) Option { return congest.WithBandwidth(bits) }

// WithMaxRounds bounds the simulated rounds (exceeding it is an error).
func WithMaxRounds(r int) Option { return congest.WithMaxRounds(r) }

// WithRoundStats records per-round traffic in Report.Result.RoundStats.
func WithRoundStats() Option { return congest.WithRoundStats() }

// WithMessageStats records per-message-type counts and bit volumes in
// Report.Result.MessageStats.
func WithMessageStats() Option { return congest.WithMessageStats() }

// WithRoundObserver calls fn after every completed round with that
// round's traffic — the live-streaming form of WithRoundStats, used by
// arbods-server to push round-level progress to clients while a long run
// executes. fn runs on the run's coordinating goroutine; keep it cheap.
func WithRoundObserver(fn func(RoundStat)) Option { return congest.WithRoundObserver(fn) }

// Runner is reusable simulator state: the worker pool, the run arenas, and
// the graph-derived routing tables, amortized across runs. Create one with
// NewRunner, pass it to every run with WithRunner, and Close it when done.
// Reuse across different graphs and different algorithms is fine; runs
// sharing a Runner must be sequential. Results are identical with or
// without one — a Runner only removes per-run setup cost.
type Runner = congest.Runner

// NewRunner returns an empty Runner; state is built lazily by the first
// run it serves and reused afterwards. This is the serving pattern: one
// Runner per worker loop, many runs.
func NewRunner() *Runner { return congest.NewRunner() }

// WithRunner executes the run on a reusable Runner instead of transient
// per-run state.
func WithRunner(r *Runner) Option { return congest.WithRunner(r) }

// RunnerPool is a bounded, goroutine-safe set of reusable Runners for
// concurrent batch execution: workers check a Runner out with GetContext,
// run on it, and Put it back, so at most Size runs are in flight and every
// Runner keeps its warmed state between checkouts. Each of its Runners
// carries a CPU share of GOMAXPROCS divided by Size (reported by
// Workers), which a large run on it takes as its worker count, so
// run-level and engine-level parallelism do not oversubscribe the
// machine.
type RunnerPool = congest.RunnerPool

// NewRunnerPool builds a pool of size Runners (size ≤ 0 = GOMAXPROCS).
func NewRunnerPool(size int) *RunnerPool { return congest.NewRunnerPool(size) }

// Job is one independent unit of a batch — typically one simulator run of
// a sweep. It receives its checked-out Runner, which carries its share of
// the machine; pass it along as WithRunner(r), and write results only
// into state the job owns (its slot of a caller-owned slice), so batch
// results are identical to the sequential sweep.
type Job = congest.Job

// Batch schedules independent jobs across a RunnerPool with bounded
// parallelism and deterministic (submission-ordered) error reporting.
// Create one per phase with RunnerPool.Batch, Submit jobs, then Wait.
type Batch = congest.Batch

// RunBatch executes jobs with at most parallel in flight (≤ 0 =
// GOMAXPROCS) on a transient RunnerPool and returns the first error in
// submission order. parallel = 1 is a plain sequential loop on one
// reusable Runner — results are identical for every parallelism.
func RunBatch(parallel int, jobs ...Job) error { return congest.RunBatch(parallel, jobs...) }

// UnweightedDeterministic runs the Section 3 algorithm (Theorem 3.1):
// deterministic (2α+1)(1+ε)-approximate dominating set on unweighted graphs
// with arboricity ≤ alpha in O(log(Δ/α)/ε) CONGEST rounds.
func UnweightedDeterministic(g *Graph, alpha int, eps float64, opts ...Option) (*Report, error) {
	return mds.UnweightedDeterministic(g, alpha, eps, opts...)
}

// WeightedDeterministic runs the Theorem 1.1 algorithm: deterministic
// (2α+1)(1+ε)-approximate *weighted* dominating set in O(log(Δ/α)/ε)
// CONGEST rounds.
func WeightedDeterministic(g *Graph, alpha int, eps float64, opts ...Option) (*Report, error) {
	return mds.WeightedDeterministic(g, alpha, eps, opts...)
}

// WeightedRandomized runs the Theorem 1.2 algorithm: expected
// (α+O(α/t))-approximation in O(t·log Δ) rounds, 1 ≤ t ≤ α/log α.
func WeightedRandomized(g *Graph, alpha, t int, opts ...Option) (*Report, error) {
	return mds.WeightedRandomized(g, alpha, t, opts...)
}

// GeneralGraphs runs the Theorem 1.3 algorithm on arbitrary graphs:
// expected Δ^{1/k}(Δ^{1/k}+1)(k+1) = O(kΔ^{2/k}) approximation in O(k²)
// rounds.
func GeneralGraphs(g *Graph, k int, opts ...Option) (*Report, error) {
	return mds.GeneralGraphs(g, k, opts...)
}

// PartialDominatingSet runs Lemma 4.1 alone: a partial dominating set S
// with the packing properties (a) and (b); remaining nodes stay
// undominated. Requires 0 < λ < 1/((α+1)(1+ε)).
func PartialDominatingSet(g *Graph, alpha int, eps, lambda float64, opts ...Option) (*Report, error) {
	return mds.PartialWeighted(g, alpha, eps, lambda, opts...)
}

// UnknownDelta runs the Remark 4.4 variant (no global knowledge of Δ).
func UnknownDelta(g *Graph, alpha int, eps float64, opts ...Option) (*Report, error) {
	return mds.UnknownDelta(g, alpha, eps, opts...)
}

// UnknownAlpha runs the Remark 4.5 variant (nodes know only n): a
// distributed H-partition orientation computes local arboricity estimates
// first.
func UnknownAlpha(g *Graph, eps float64, opts ...Option) (*Report, error) {
	return mds.UnknownAlpha(g, eps, opts...)
}

// TruncatedUnweighted runs the Section 3 packing phase for exactly iters
// iterations and then self-completes: deliberately too local, to expose the
// Theorem 1.4 phenomenon (fewer rounds ⇒ worse approximation). The result
// is a valid dominating set with a feasible packing; only the ratio
// guarantee is forfeited.
func TruncatedUnweighted(g *Graph, alpha int, eps float64, iters int, opts ...Option) (*Report, error) {
	return mds.TruncatedUnweighted(g, alpha, eps, iters, opts...)
}

// TreeThreeApprox runs the Observation A.1 algorithm: on forests, all
// non-leaf nodes form a 3-approximation, computed in one communication
// round.
func TreeThreeApprox(g *Graph, opts ...Option) (*Report, error) {
	return mds.TreeThreeApprox(g, opts...)
}

// Baselines (prior work).

// BaselineResult is the outcome of a centralized baseline.
type BaselineResult = baseline.GreedyResult

// GreedyCentralized runs the classic sequential greedy
// (ln(Δ+1)-approximation, [Joh74]).
func GreedyCentralized(g *Graph) BaselineResult { return baseline.Greedy(g) }

// ExactSmall computes the exact optimum: forests of any size via the
// linear-time DP, other graphs up to 64 nodes via branch and bound.
func ExactSmall(g *Graph) (BaselineResult, error) { return baseline.Exact(g) }

// ExactForest computes the exact optimum on forests of any size.
func ExactForest(g *Graph) (BaselineResult, error) { return baseline.ExactForest(g) }

// LWBucketDeterministic runs the Lenzen–Wattenhofer-style deterministic
// bucket greedy: O(log Δ) rounds, O(α·log Δ)-approximation on arboricity-α
// graphs. Unweighted only.
func LWBucketDeterministic(g *Graph, opts ...Option) (*Report, error) {
	return baseline.LWDeterministic(g, opts...)
}

// LRGRandomized runs the local randomized greedy of Jia–Rajaraman–Suel:
// expected O(log Δ)-approximation. Unweighted only.
func LRGRandomized(g *Graph, opts ...Option) (*Report, error) {
	return baseline.LRGRandomized(g, opts...)
}

// KW05 runs the Kuhn–Wattenhofer-style O(k²)-round fractional+rounding
// algorithm with expected O(kΔ^{2/k}·log Δ)-approximation — the general
// graph baseline Theorem 1.3 improves by a log Δ factor. Returns the
// report and the fractional phase's value. Unweighted only.
func KW05(g *Graph, k int, opts ...Option) (*Report, float64, error) {
	return baseline.KW05(g, k, opts...)
}

// Lower bound (Section 5).

// LowerBoundConstruction is the Figure 1 graph H built from a bipartite
// base graph, with the Theorem 1.4 reduction attached.
type LowerBoundConstruction = lower.Construction

// BuildLowerBound constructs H from a bipartite base graph.
func BuildLowerBound(base *Graph) (*LowerBoundConstruction, error) { return lower.Build(base) }

// LowerBoundGadget generates a KMW-flavoured biregular bipartite base
// graph: nl left nodes of degree dl, right nodes of degree dr.
func LowerBoundGadget(nl, dl, dr int, seed uint64) (*Graph, error) {
	return lower.Gadget(nl, dl, dr, seed)
}
