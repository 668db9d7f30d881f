package congest

import (
	"fmt"

	"arbods/internal/graph"
	"arbods/internal/rng"
)

// engine is the per-run, output-typed veneer over a Runner. The Runner
// (embedded) owns everything O-independent — outbox records and slabs,
// done entries, marks, both shard layouts, inbox scratch, worker pool,
// arena — and persists across runs; the engine adds the run's config, the
// procs, and the result.
//
// Each round is one phase — workers step disjoint node ranges — and one
// barrier. Stepping node u pulls u's inbox first: u walks its sorted
// neighbor list and collects what each neighbor sent it last round, so
// the inbox is ordered by (sender ID, send index) by construction, not by
// any merge. Round r writes the outbox set of parity r and reads the
// other one, which round r-1 wrote, so the walks race with no sends. Each
// node touches only its own proc, done entry and outbox record, and
// appends to its shard's slabs, so shards race on nothing.
//
// A round's cost follows the previous round's traffic. After a dense
// round every node walks, on the degree-weighted layout. After a sparse
// round (at most lightMax messages) the barrier runs the mark pass, which
// sets the bit of each of that round's receivers, and the light round that
// follows walks only at marked nodes, on the node-count layout. The bit
// only filters which nodes run the same walk, so inboxes, accounting and
// errors are those of a round in which every node walks.
//
// All scratch (outbox slabs, inbox scratch, marks, worker goroutines)
// lives on the Runner and is reused across rounds and runs.
type engine[O any] struct {
	*Runner
	cfg      config
	budget   int
	round    int
	prevMsgs int64 // messages sent in the previous round (0 before round 0)

	// ctxDone is cfg.ctx.Done(), captured once: nil for a context-free
	// run (or context.Background()), so the per-round cancellation check
	// costs a single nil comparison unless a real context is attached.
	ctxDone <-chan struct{}

	procs []Proc[O]
	res   *Result[O]
}

// runShard implements shardRunner: the pool's workers call back into the
// engine with their shard index, so dispatching a round allocates
// nothing — no per-run method values, no per-round closures.
func (e *engine[O]) runShard(w int) { e.stepRange(w) }

func newEngine[O any](r *Runner, g *graph.Graph, factory Factory[O], cfg config) (*engine[O], error) {
	if err := r.bind(g, cfg); err != nil {
		return nil, err
	}
	n := g.N()
	e := &engine[O]{Runner: r, cfg: cfg}
	if cfg.ctx != nil {
		e.ctxDone = cfg.ctx.Done()
	}
	if cfg.mode != Local {
		e.budget = cfg.bandwidth
		if e.budget == 0 {
			e.budget = DefaultBandwidth(n)
		}
	}

	// The proc slice never escapes the run, so it always comes from the
	// Runner's cached slab when the output type matches: a warm serving
	// loop rebuilds the procs in place instead of allocating n interface
	// slots per run. The clear drops references to the previous run's
	// procs beyond this run's n, so a shrinking rebind cannot leak them.
	if slab, ok := r.procSlab.([]Proc[O]); ok && cap(slab) >= n {
		slab = slab[:cap(slab)]
		clear(slab[n:]) // [0, n) is rebuilt by the factory loop below
		e.procs = slab[:n]
	} else {
		e.procs = make([]Proc[O], n)
		r.procSlab = e.procs
	}
	// The factory is user code running before round 0 on the coordinating
	// goroutine; a panic there is recovered like a mid-run Step panic
	// (Round = -1) so a faulty constructor fails this run, not the process.
	var perr *ProcPanicError
	func() {
		cur := -1
		defer func() {
			if v := recover(); v != nil {
				perr = newProcPanic(-1, cur, v)
			}
		}()
		for v := 0; v < n; v++ {
			cur = v
			e.procs[v] = factory(NodeInfo{
				ID:        v,
				Neighbors: g.Neighbors(v),
				Weight:    g.Weight(v),
				N:         n,
				Rand:      rng.Init(cfg.seed, v),
				Arena:     &r.arena,
			})
		}
	}()
	if perr != nil {
		return nil, perr
	}

	e.res = &Result[O]{Bandwidth: e.budget}
	return e, nil
}

// runRound steps every shard, inline when there is only one.
func (e *engine[O]) runRound() {
	if len(e.steps) == 1 {
		e.runShard(0)
		return
	}
	e.pool.run(e, len(e.steps))
}

func (e *engine[O]) run() (*Result[O], error) {
	activeCount := e.n
	for round := 0; ; round++ {
		if activeCount == 0 {
			break
		}
		if round >= e.cfg.maxRounds {
			return nil, fmt.Errorf("congest: exceeded max rounds (%d) with %d active nodes", e.cfg.maxRounds, activeCount)
		}
		// The per-round barrier is the cancellation point: a canceled
		// context aborts here, before the next round's step phase, so the
		// run returns ctx.Err() within one round of the cancellation and
		// never tears a round apart mid-phase. The Runner's next bind
		// resets all per-run state, exactly as for the other abort paths
		// (Sender errors, bandwidth violations, the round cap above).
		if e.ctxDone != nil {
			select {
			case <-e.ctxDone:
				return nil, e.cfg.ctx.Err()
			default:
			}
		}
		e.round = round

		e.runRound()
		activeCount = 0
		var roundMsgs, roundBits int64
		var pan *ProcPanicError
		for w := range e.steps {
			s := &e.steps[w]
			// Panics take precedence over Sender errors, lowest node first:
			// shards keep stepping past a Sender error but stop at a panic,
			// so only this ordering is invariant across worker layouts (see
			// stepShard.pan).
			if s.pan != nil && (pan == nil || s.pan.Node < pan.Node) {
				pan = s.pan
			}
			activeCount += s.active
			roundMsgs += s.msgs
			roundBits += s.bits
		}
		if pan != nil {
			return nil, pan
		}
		// Then Sender errors, then bandwidth violations. Shards cover
		// ascending node ranges and each records its lowest-ID error (its
		// lowest (sender, receiver) violation), so the first one wins
		// deterministically.
		for w := range e.steps {
			if err := e.steps[w].err; err != nil {
				return nil, err
			}
		}
		for w := range e.steps {
			if err := e.steps[w].bwErr; err != nil {
				return nil, err
			}
		}

		e.prevMsgs = roundMsgs
		if roundMsgs <= e.lightMax {
			e.mark(round & 1)
		}
		e.res.Messages += roundMsgs
		e.res.TotalBits += roundBits
		if e.cfg.roundStats {
			e.res.RoundStats = append(e.res.RoundStats, RoundStat{
				Round: round, Messages: roundMsgs, Bits: roundBits, ActiveNodes: activeCount,
			})
		}
		if e.cfg.roundObs != nil {
			e.cfg.roundObs(RoundStat{
				Round: round, Messages: roundMsgs, Bits: roundBits, ActiveNodes: activeCount,
			})
		}
		e.res.Rounds = round + 1
	}
	// The drain: every node is done, so all of the final round's traffic
	// would land on terminated receivers — all of it is dropped.
	e.res.DroppedMessages += e.prevMsgs
	return e.finish()
}

// mergeTagStats folds one shard's per-tag accumulators into the result,
// lazily creating the MessageStats map.
func (e *engine[O]) mergeTagStats(stats *[MaxTags]MessageStat) {
	res := e.res
	for t := range stats {
		st := stats[t]
		if st.Count == 0 {
			continue
		}
		if res.MessageStats == nil {
			res.MessageStats = make(map[string]MessageStat, 4)
		}
		// One name lookup per *tag* per shard; the per-send work in
		// the step phase is two array adds.
		name := Tag(t).String()
		agg := res.MessageStats[name]
		agg.Count += st.Count
		agg.Bits += st.Bits
		res.MessageStats[name] = agg
	}
}

// finish merges the per-run shard accumulators and collects outputs. The
// Output calls are user code, recovered on the same contract as Step
// panics (Round = -1: the round loop is over).
func (e *engine[O]) finish() (*Result[O], error) {
	res := e.res
	for w := range e.steps {
		s := &e.steps[w]
		res.DroppedMessages += s.dropped
		res.BandwidthViolations += s.violations
		res.MaxEdgeBits = max(res.MaxEdgeBits, int(s.maxEdgeBits))
		e.mergeTagStats(&s.stats)
	}
	res.Outputs = make([]O, e.n)
	var perr *ProcPanicError
	func() {
		cur := -1
		defer func() {
			if v := recover(); v != nil {
				perr = newProcPanic(-1, cur, v)
			}
		}()
		for v := range e.procs {
			cur = v
			res.Outputs[v] = e.procs[v].Output()
		}
	}()
	if perr != nil {
		return nil, perr
	}
	return res, nil
}
