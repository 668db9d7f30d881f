package congest

import (
	"fmt"
	"runtime"

	"arbods/internal/graph"
)

// Runner owns the run-scoped state of the simulator — the worker pool, the
// proc Arena, the outbox slabs and inbox scratch, and the per-node outbox
// records — and reuses all of it across Run calls. A one-shot
// congest.Run constructs and discards a transient Runner; a serving-style
// caller that executes many runs (cmd/mdsbench, parameter sweeps, repeated
// requests on the same graph) creates one Runner, passes it to each run
// with WithRunner, and amortizes the whole setup: on a rebind to the same
// graph nothing graph-sized is allocated at all.
//
// A Runner may be reused across different graphs (graph-derived state is
// rebuilt on the first run after the graph changes) and across different
// option sets. It is not goroutine-safe: runs sharing a Runner must be
// sequential, and a run that finds the Runner mid-run fails. Close releases
// the worker pool; closing is optional for transient use but polite for
// long-lived Runners (the pool goroutines otherwise persist until the
// Runner is collected).
type Runner struct {
	g       *graph.Graph
	n       int
	workers int // shard layout currently built (0 = none)

	pool     *pool
	poolSize int

	// Per-node outbox records, one set per round parity: round r writes
	// set r&1 while its pulls read the set round r-1 wrote.
	sent [2][]bool   // per node: queued any message that round
	outs [2][]outbox // per-node traffic heads, valid where sent

	// done is each node's run state: 0 while it runs, terminated once its
	// Step returned true, and in between the rounds a sleeping node may
	// still skip (see SleepUntil). One byte serves both, so the step loop
	// reads one byte per node to know whether to step it.
	done []uint8
	// marks has one bit per node: after a sparse round, the mark pass sets
	// the bit of every receiver of that round's sends, and the light round
	// that follows pulls at marked nodes only.
	marks bitset
	// lightMax is the largest message count of a sparse round.
	lightMax int64
	// Shard boundaries, len workers+1 each: dense rounds cut by cumulative
	// degree, light rounds by node count (see shard.go).
	bounds, nodeBounds []int32
	steps              []stepShard
	arena              Arena

	// procSlab holds the engine's []Proc[O], cached through an any-box
	// because the Runner itself is not generic. It is reused by every run
	// (procs never escape the run); a run with a different output type
	// simply rebuilds the box.
	procSlab any

	running  bool
	poisoned bool
}

// NewRunner returns an empty Runner; all state is built lazily by the first
// run and reused afterwards.
func NewRunner() *Runner { return &Runner{} }

// Poisoned reports whether a run on this Runner ended in a recovered proc
// panic (ErrProcPanic). A panicking callback may have been interrupted at
// an arbitrary point — mid-arena-carve, mid-slab-write — so although the
// next bind resets every piece of per-run state the engine owns, the
// Runner is conservatively quarantined: RunnerPool.Put discards poisoned
// Runners and checks a replacement in instead. The flag is sticky; a
// caller that understands the risk may keep using the Runner directly
// (transcripts remain correct — bind rebuilds all run state), but pooled
// serving paths should let the pool swap it out.
func (r *Runner) Poisoned() bool { return r.poisoned }

// noteRunError marks the Runner poisoned when err is a recovered proc
// panic. Cheap type assertion instead of errors.As: the engine returns
// *ProcPanicError un-wrapped.
func (r *Runner) noteRunError(err error) {
	if err == nil {
		return
	}
	if _, ok := err.(*ProcPanicError); ok {
		r.poisoned = true
	}
}

// Close releases the worker pool. The Runner must be idle; it may be used
// again afterwards (a fresh pool is built on demand).
func (r *Runner) Close() {
	if r.pool != nil {
		r.pool.close()
		r.pool = nil
		r.poolSize = 0
	}
}

// WithRunner executes the run on a reusable Runner instead of transient
// state. See Runner for the reuse and concurrency contract.
func WithRunner(r *Runner) Option { return optionFunc(func(c *config) { c.runner = r }) }

// bind points the Runner at (g, cfg) for one run: graph-derived state is
// rebuilt only when the graph changed, the shard layout only when the node
// or worker count changed, and everything else is reset in place.
func (r *Runner) bind(g *graph.Graph, cfg config) error {
	if r.running {
		return fmt.Errorf("congest: Runner is already mid-run (Runners are not goroutine-safe)")
	}
	r.running = true
	n := g.N()

	if r.g != g {
		r.g = g
		r.n = n
		// Round r sets every node's sent flag in set r&1 before round r+1
		// reads it, and round 0 reads nothing, so reused arrays need no
		// clearing.
		for p := range r.sent {
			r.sent[p] = withLen(r.sent[p], n)
			r.outs[p] = withLen(r.outs[p], n)
		}
		r.done = resized(r.done, n)
		r.marks = withLen(r.marks, (n+63)/64)
		r.lightMax = int64(g.DegreeSum() / sparseRatio)
		r.arena.first = g.DegreeSum()
		r.workers = 0 // force a shard-layout rebuild below
	} else {
		clear(r.done) // no termination or sleep survives into the next run
	}
	// Round 0 is light (no round precedes it), so it pulls only at marked
	// nodes: no mark may survive from an earlier run, whose outboxes are
	// stale.
	clear(r.marks)

	workers := cfg.workers
	if workers == 0 {
		// Adaptive: callers that pass WithWorkers(0) let the engine pick.
		// Small graphs stay sequential — the per-round dispatch barriers
		// cost more than the parallelism recovers below the crossover.
		workers = 1
		if n >= adaptiveWorkersMin {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	if workers > n {
		workers = n
	}
	if n < parallelStepMin || workers < 1 {
		workers = 1
	}
	if workers != r.workers {
		r.workers = workers
		// Dense boundaries are cut by cumulative degree (one binary search on
		// the CSR offsets per boundary), so skewed-degree graphs don't
		// serialize on the shard that holds the hubs; see shardBounds.
		r.bounds = shardBounds(g, workers)
		r.nodeBounds = nodeBounds(n, workers)
		if len(r.steps) != workers {
			r.steps = make([]stepShard, workers)
		}
		for w := 0; w < workers; w++ {
			// The inbox scratch holds the common round — one broadcast per
			// neighbor, so at most Δ messages. A sender list holds at most
			// lightMax nodes of the larger of the shard's two ranges (see
			// stepShard.senders). The outbox slabs start empty: lone sends
			// never reach them (see outbox).
			s := &r.steps[w]
			span := max(r.bounds[w+1]-r.bounds[w], r.nodeBounds[w+1]-r.nodeBounds[w])
			s.in = withCap(s.in, g.MaxDegree())
			s.senders = withCap(s.senders, min(int(span), int(r.lightMax)))
		}
	}
	for w := range r.steps {
		s := &r.steps[w]
		s.dropped, s.violations, s.maxEdgeBits = 0, 0, 0
		s.stats = [MaxTags]MessageStat{}
	}

	if workers > 1 && (r.pool == nil || r.poolSize < workers) {
		if r.pool != nil {
			r.pool.close()
		}
		r.pool = newPool(workers)
		r.poolSize = workers
	}
	r.arena.Reset()
	return nil
}

// release marks the run finished. closePool additionally tears the worker
// pool down (transient Runners built inside congest.Run).
func (r *Runner) release(closePool bool) {
	r.running = false
	if closePool {
		r.Close()
	}
}

// withLen returns s at length n, reallocated only when its capacity is
// below n; surviving elements are not cleared.
func withLen[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// withCap returns s emptied, reallocated only when its capacity is below n.
func withCap[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// resized returns s resized to length n with every element zeroed,
// reusing the backing array when it is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
