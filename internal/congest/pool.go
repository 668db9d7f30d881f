package congest

import "sync"

// phase identifies which shard task a dispatch executes. Dispatching
// (runner, phase) pairs instead of func values keeps the round loop free
// of per-run method-value allocations: the engine converts itself to the
// phaseRunner interface (a pointer, no allocation) once per call.
type phase int

const (
	phaseStep phase = iota
	phaseRoute
)

// phaseRunner is implemented by the engine: execute one phase on one shard.
type phaseRunner interface {
	runShard(ph phase, w int)
}

// pool is a set of long-lived worker goroutines, one per engine worker.
// The engine dispatches one task per worker per phase (step, then route)
// and waits on a shared WaitGroup; workers park on their signal channel
// between phases instead of being respawned every round, which removes
// the per-round goroutine create/destroy cost the old engine paid.
type pool struct {
	runner phaseRunner     // current dispatch target; published by the channel sends
	phase  phase           // current phase; published by the channel sends
	start  []chan struct{} // one signal channel per worker
	wg     sync.WaitGroup
}

func newPool(workers int) *pool {
	p := &pool{start: make([]chan struct{}, workers)}
	for i := range p.start {
		ch := make(chan struct{}, 1)
		p.start[i] = ch
		go p.worker(i, ch)
	}
	return p
}

func (p *pool) worker(i int, ch chan struct{}) {
	for range ch {
		p.runner.runShard(p.phase, i)
		p.wg.Done()
	}
}

// run executes r.runShard(ph, w) on workers 0..k-1 and returns when all
// are done (a Runner reused with a smaller worker count leaves the rest
// parked). Writing p.runner/p.phase before the channel sends gives each
// worker a happens-before edge to the new task, so run needs no extra
// locking and no allocation.
func (p *pool) run(r phaseRunner, ph phase, k int) {
	p.runner = r
	p.phase = ph
	p.wg.Add(k)
	for _, ch := range p.start[:k] {
		ch <- struct{}{}
	}
	p.wg.Wait()
}

// close terminates the workers. The pool must be idle.
func (p *pool) close() {
	for _, ch := range p.start {
		close(ch)
	}
}
