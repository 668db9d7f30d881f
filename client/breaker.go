package arbodsclient

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a per-endpoint circuit breaker: threshold consecutive
// failures open it, the cooldown later one half-open probe is allowed
// through, and that probe's outcome closes it again or re-opens it for
// another cooldown. While open, allow answers false — the endpoint costs
// the cluster one probe per cooldown instead of one timeout per request.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu        sync.Mutex
	state     breakerState
	failures  int
	openUntil time.Time
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a request may go to this endpoint, transitioning
// open → half-open when the cooldown has elapsed (the caller's request
// is the probe).
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed, breakerHalfOpen:
		return true
	default: // breakerOpen
		if time.Now().Before(b.openUntil) {
			return false
		}
		b.state = breakerHalfOpen
		return true
	}
}

// record feeds one outcome, returning whether the open/closed verdict
// changed and what it now is.
func (b *breaker) record(ok bool) (changed, open bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	was := b.state == breakerOpen
	if ok {
		b.state = breakerClosed
		b.failures = 0
	} else {
		b.failures++
		// A failed half-open probe re-opens immediately; a closed breaker
		// opens at the threshold.
		if b.state == breakerHalfOpen || b.failures >= b.threshold {
			b.state = breakerOpen
			b.failures = 0
			b.openUntil = time.Now().Add(b.cooldown)
		}
	}
	now := b.state == breakerOpen
	return was != now, now
}
