package congest

import (
	"context"
	"runtime"
	"sync"
)

// Job is one independent unit of a batch: typically one simulator run (a
// seed × option × graph point of a sweep). It receives the Runner checked
// out for it, which carries its share of the machine; a job that executes
// simulator runs must pass it along as WithRunner(r), and must keep its
// side effects confined to state it owns — the batch pattern is that job
// i writes its result into slot i of a caller-owned slice, so the
// assembled results are identical to the sequential sweep no matter how
// the scheduler interleaves execution.
type Job func(r *Runner) error

// Batch schedules independent jobs across a RunnerPool with bounded
// parallelism. Submit never blocks (jobs queue on the pool's checkout);
// Wait blocks until every submitted job has finished and returns the
// error of the lowest submission index that failed — deterministic, like
// everything else about a batch: jobs may run in any order, but results
// land in submission slots and the reported error does not depend on
// scheduling.
//
// A failed job does not cancel the rest of the batch; its Runner returns
// to the pool and is reset by its next run. Jobs must not Submit to their
// own batch or check out from their own pool (a full pool would
// deadlock), and a Batch must not be reused after Wait — create a new one
// per phase.
type Batch struct {
	pool *RunnerPool
	wg   sync.WaitGroup
	n    int

	mu     sync.Mutex
	errIdx int
	err    error
}

// Batch starts an empty batch on the pool.
func (p *RunnerPool) Batch() *Batch { return &Batch{pool: p, errIdx: -1} }

// Submit enqueues a job. Not goroutine-safe: submissions come from the
// coordinating goroutine, in the order that defines the slot indices.
func (b *Batch) Submit(job Job) {
	idx := b.n
	b.n++
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		r, err := b.pool.GetContext(context.Background())
		if err != nil {
			b.recordErr(idx, err)
			return
		}
		defer b.pool.Put(r)
		if err := job(r); err != nil {
			b.recordErr(idx, err)
		}
	}()
}

func (b *Batch) recordErr(idx int, err error) {
	b.mu.Lock()
	if b.errIdx < 0 || idx < b.errIdx {
		b.errIdx, b.err = idx, err
	}
	b.mu.Unlock()
}

// Wait blocks until every submitted job is done and returns the first
// error in submission order (nil when all succeeded).
func (b *Batch) Wait() error {
	b.wg.Wait()
	return b.err
}

// RunBatch executes the jobs with at most `parallel` in flight on a
// transient RunnerPool (parallel ≤ 0 selects GOMAXPROCS; the pool never
// outgrows the job count) and returns the first error in submission
// order. parallel = 1 degenerates to a plain sequential loop on one
// reusable Runner with all of GOMAXPROCS as its share — the reference the
// determinism tests compare every other parallelism against. Callers
// running several batches should hold their own RunnerPool and use
// Batch/Submit/Wait instead, so the warmed Runners carry over.
func RunBatch(parallel int, jobs ...Job) error {
	if len(jobs) == 0 {
		return nil
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(jobs) {
		parallel = len(jobs)
	}
	if parallel == 1 {
		r := NewRunner()
		defer r.Close()
		for _, job := range jobs {
			if err := job(r); err != nil {
				return err
			}
		}
		return nil
	}
	pool := NewRunnerPool(parallel)
	defer pool.Close()
	b := pool.Batch()
	for _, job := range jobs {
		b.Submit(job)
	}
	return b.Wait()
}
