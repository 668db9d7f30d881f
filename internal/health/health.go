// Package health is the serving stack's one failure detector. A Tracker
// counts one peer's consecutive outcomes and keeps an up/down verdict
// with hysteresis in both directions: failAfter failures in a row take
// the peer down, reviveAfter successes in a row bring it back.
//
// The client's per-endpoint circuit breaker is a Tracker with
// (BreakerThreshold, 1, BreakerCooldown): once the cooldown has passed,
// requests go through again as the half-open trial, a success closes
// the breaker and a failure restarts the cooldown. A cluster peer is a
// Tracker with (3, 2, no cooldown), revived only by its probes.
package health

import (
	"sync"
	"time"
)

// Tracker is the health verdict of one peer; safe for concurrent use.
type Tracker struct {
	failAfter   int
	reviveAfter int
	cooldown    time.Duration
	now         func() time.Time

	mu    sync.Mutex
	down  bool
	run   int       // consecutive outcomes against the verdict
	until time.Time // while down: when the cooldown ends
}

// New returns an up Tracker that goes down after failAfter consecutive
// failures and comes back after reviveAfter consecutive successes. A
// down peer is admitted again once cooldown has passed since it went
// down or since its last failed trial.
func New(failAfter, reviveAfter int, cooldown time.Duration) *Tracker {
	return &Tracker{failAfter: failAfter, reviveAfter: reviveAfter, cooldown: cooldown, now: time.Now}
}

// Up reports the verdict.
func (t *Tracker) Up() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.down
}

// Allow reports whether a request may go to the peer: always while it is
// up, and while it is down once its cooldown has passed (the trial).
func (t *Tracker) Allow() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.down || !t.now().Before(t.until)
}

// Record feeds one outcome and reports whether it flipped the verdict;
// only a success brings a peer up and only a failure takes it down, so
// after a flip the verdict is up exactly when ok is. A failure while
// down restarts the cooldown only once it has passed (a failed trial);
// one that lands while still cooling leaves the cooldown as it is.
func (t *Tracker) Record(ok bool) (flipped bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ok == t.down {
		t.run++
	} else {
		t.run = 0
	}
	switch {
	case !t.down && t.run >= t.failAfter:
		t.down, t.run, t.until = true, 0, t.now().Add(t.cooldown)
		return true
	case t.down && t.run >= t.reviveAfter:
		t.down, t.run = false, 0
		return true
	case t.down && !ok:
		if now := t.now(); !now.Before(t.until) {
			t.until = now.Add(t.cooldown)
		}
	}
	return false
}
