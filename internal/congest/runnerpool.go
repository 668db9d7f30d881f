package congest

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrPoolClosed is returned by GetContext (and reported by Batch slots)
// when a checkout finds the RunnerPool closed. Get returns nil in the
// same situation.
var ErrPoolClosed = errors.New("congest: RunnerPool is closed")

// RunnerPool is a bounded, goroutine-safe set of reusable Runners. One
// Runner serves one run at a time (see Runner), so concurrent batch
// execution needs several of them: workers check a Runner out with Get
// (or the cancellable GetContext), execute any number of sequential runs
// on it, and check it back in with Put. The pool's size therefore bounds
// the number of simulator runs in flight at once, and each checked-in
// Runner keeps its warmed state — the graph-derived tables, outbox
// records, arenas, and worker goroutines survive the checkout/checkin
// cycle, so a sweep of hundreds of runs pays the setup cost at most size
// times.
//
// The pool also owns the machine's worker budget: Workers reports how many
// intra-run engine workers each checkout should use (GOMAXPROCS split
// evenly across the pool, never below 1), so for size ≤ GOMAXPROCS the
// pool does not oversubscribe the CPUs the way `size` runs at the default
// WithWorkers(GOMAXPROCS) would. An explicit size is honored even beyond
// GOMAXPROCS — useful for checkout-slot isolation — but buys CPU-bound
// runs nothing and keeps size warmed Runners resident, so CPU-bound
// sweeps should stay at or below the core count (cmd/mdsbench clamps its
// -parallel flag accordingly). Transcripts are identical for every worker
// count, so the split never changes results.
type RunnerPool struct {
	free      chan *Runner
	closed    chan struct{} // closed by Close once every Runner is back
	closeOnce sync.Once
	size      int
	workers   int
	replaced  atomic.Int64 // poisoned Runners discarded by Put
}

// NewRunnerPool builds a pool of `size` Runners (size ≤ 0 selects
// GOMAXPROCS, the largest count that can make progress simultaneously).
// All Runners are created up front — Runner state is lazy, so an unused
// pool slot costs almost nothing.
func NewRunnerPool(size int) *RunnerPool {
	procs := runtime.GOMAXPROCS(0)
	if size <= 0 {
		size = procs
	}
	p := &RunnerPool{
		free:    make(chan *Runner, size),
		closed:  make(chan struct{}),
		size:    size,
		workers: procs / size,
	}
	if p.workers < 1 {
		p.workers = 1
	}
	for i := 0; i < size; i++ {
		p.free <- NewRunner()
	}
	return p
}

// Size is the number of Runners the pool owns — the bound on concurrent
// runs.
func (p *RunnerPool) Size() int { return p.size }

// Workers is the per-checkout intra-run worker budget: GOMAXPROCS divided
// by the pool size (at least 1). Pass it to WithWorkers so run-level and
// engine-level parallelism share the machine instead of multiplying.
func (p *RunnerPool) Workers() int { return p.workers }

// GetContext checks a Runner out, waiting until one is free, ctx is
// canceled (ctx.Err()), or the pool is closed (ErrPoolClosed). A free
// Runner is preferred over an already-expired context, so a pool with
// capacity never rejects. Every successful GetContext must be balanced by
// a Put of the same Runner.
func (p *RunnerPool) GetContext(ctx context.Context) (*Runner, error) {
	select {
	case r := <-p.free:
		return r, nil
	default:
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case r := <-p.free:
		return r, nil
	case <-done:
		return nil, ctx.Err()
	case <-p.closed:
		return nil, ErrPoolClosed
	}
}

// Get checks a Runner out, blocking until one is free. Every Get must be
// balanced by a Put of the same Runner; the easiest way to get both the
// pairing and the worker budget right is to go through Batch or RunBatch.
// A Get that finds the pool closed — including a Get already waiting when
// Close drains the last Runner — returns nil instead of blocking forever.
func (p *RunnerPool) Get() *Runner {
	r, err := p.GetContext(context.Background())
	if err != nil {
		return nil
	}
	return r
}

// Put checks a Runner back in. The Runner keeps its warmed buffers; a
// failed or aborted run needs no special handling (the next bind resets
// all per-run state, which TestBatchAbortedJob pins down) — with one
// exception: a Runner poisoned by a recovered proc panic (ErrProcPanic)
// is not returned to circulation. Put closes it and checks in a fresh
// replacement instead, so the pool's capacity is preserved and the next
// checkout warms clean state on its first bind; Replaced counts the
// swaps. One panicking callback therefore costs its own run plus one
// Runner re-warm — never a pool slot and never the process.
func (p *RunnerPool) Put(r *Runner) {
	if r.Poisoned() {
		r.Close()
		p.replaced.Add(1)
		r = NewRunner()
	}
	p.free <- r
}

// Replaced reports how many poisoned Runners Put has discarded and
// replaced over the pool's lifetime.
func (p *RunnerPool) Replaced() int64 { return p.replaced.Load() }

// Close waits for every Runner to be checked back in, releases their
// worker pools, and then fails all pending and future checkouts
// (GetContext returns ErrPoolClosed, Get returns nil). A checkout that
// races the drain and wins still completes normally — Close keeps
// waiting for that Runner's Put. Close is idempotent.
func (p *RunnerPool) Close() {
	p.closeOnce.Do(func() {
		for i := 0; i < p.size; i++ {
			(<-p.free).Close()
		}
		close(p.closed)
	})
}
