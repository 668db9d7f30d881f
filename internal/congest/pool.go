package congest

import "sync"

// shardRunner is implemented by the engine: step one shard for the
// current round. Dispatching a shardRunner instead of a func value keeps
// the round loop free of per-run method-value allocations: the engine
// converts itself to the interface (a pointer, no allocation) once per
// call.
type shardRunner interface {
	runShard(w int)
}

// pool is a set of long-lived worker goroutines, one per engine worker.
// The engine dispatches one task per worker per round and waits on a
// shared WaitGroup; workers park on their signal channel between rounds
// instead of being respawned every round, which removes the per-round
// goroutine create/destroy cost the old engine paid.
type pool struct {
	runner shardRunner     // current dispatch target; published by the channel sends
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
		p.runner.runShard(i)
		p.wg.Done()
	}
}

// run executes r.runShard(w) on workers 0..k-1 and returns when all are
// done (a Runner reused with a smaller worker count leaves the rest
// parked). Writing p.runner before the channel sends gives each worker a
// happens-before edge to the new task, so run needs no extra locking and
// no allocation.
func (p *pool) run(r shardRunner, k int) {
	p.runner = r
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
