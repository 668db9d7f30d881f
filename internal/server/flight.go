package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
)

// flightGroup coalesces concurrent builds of the same graph reference
// (hand-rolled; the module deliberately has no singleflight dependency).
// When N requests race on a cold "corpus:…" or "spec:…" ref, exactly one
// — the leader — decodes, generates, and builds the CSR; the rest wait on
// the leader's result instead of burning N-1 redundant builds (the ~255ms
// that dominates a cold million-node request, multiplied by the fleet).
//
// The leader runs to completion even if its own request's context dies
// mid-build: the build is not interruptible anyway, and the finished
// entry lands in the graph cache where the waiters — and every later
// request — find it. Waiters, by contrast, stop waiting the moment their
// context dies and report ctx.Err().
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

// flightCall is one in-flight build; done is closed once the fields below
// it are final.
type flightCall struct {
	done   chan struct{}
	view   entryView
	status int
	err    error
}

// buildPanicError is a build that panicked. The leader recovers it as
// its result, so the key is released and the waiters woken like after any
// failed build, and the next request for the reference builds afresh.
type buildPanicError struct {
	value any
	stack []byte
}

func (e *buildPanicError) Error() string {
	return fmt.Sprintf("graph build panicked: %v", e.value)
}

// do runs fn once per key across concurrent callers. The second return
// reports leadership — true when this caller executed fn — which is what
// the builds counter keys off. A panic in fn is every caller's
// *buildPanicError with status 500.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (entryView, int, error)) (entryView, int, error, bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		var ctxDone <-chan struct{}
		if ctx != nil {
			ctxDone = ctx.Done()
		}
		select {
		case <-c.done:
			return c.view, c.status, c.err, false
		case <-ctxDone:
			return entryView{}, 0, ctx.Err(), false
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.run(fn)
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.view, c.status, c.err, true
}

// run calls fn and stores its result, or a *buildPanicError if it panics.
func (c *flightCall) run(fn func() (entryView, int, error)) {
	defer func() {
		if v := recover(); v != nil {
			c.status, c.err = http.StatusInternalServerError, &buildPanicError{value: v, stack: debug.Stack()}
		}
	}()
	c.view, c.status, c.err = fn()
}
