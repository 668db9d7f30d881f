package health

import (
	"testing"
	"time"
)

// TestTrackerTransitions walks both roles through their transition
// tables on a fake clock: the client's breaker (threshold 2, cooldown
// 10s) and a cluster peer (3, 2, no cooldown).
func TestTrackerTransitions(t *testing.T) {
	type step struct {
		op        string        // "ok", "fail" or "wait"
		wait      time.Duration // the clock's move for "wait"
		flipped   bool          // what Record reported
		up, allow bool          // the verdict and admission after the step
	}
	for _, role := range []struct {
		name                   string
		failAfter, reviveAfter int
		cooldown               time.Duration
		steps                  []step
	}{
		{"breaker", 2, 1, 10 * time.Second, []step{
			{op: "fail", up: true, allow: true},
			{op: "ok", up: true, allow: true}, // a success resets the count
			{op: "fail", up: true, allow: true},
			{op: "fail", flipped: true}, // opens at the threshold
			{op: "wait", wait: 5 * time.Second},
			// A failure while cooling leaves the cooldown alone.
			{op: "fail"},
			{op: "wait", wait: 5 * time.Second, allow: true}, // the trial
			// A failed trial re-opens at once, with a fresh cooldown.
			{op: "fail"},
			{op: "wait", wait: 9 * time.Second},
			{op: "wait", wait: time.Second, allow: true},
			{op: "ok", flipped: true, up: true, allow: true}, // a good trial closes it
			{op: "fail", up: true, allow: true},
			{op: "fail", flipped: true},
			{op: "ok", flipped: true, up: true, allow: true}, // so does a late success
		}},
		{"cluster peer", 3, 2, 0, []step{
			{op: "fail", up: true, allow: true},
			{op: "fail", up: true, allow: true},
			{op: "ok", up: true, allow: true}, // two failures are a flap
			{op: "fail", up: true, allow: true},
			{op: "fail", up: true, allow: true},
			{op: "fail", flipped: true, allow: true}, // no cooldown: never held back
			{op: "ok", allow: true},                  // one success is a lucky probe
			{op: "fail", allow: true},
			{op: "ok", allow: true},
			{op: "ok", flipped: true, up: true, allow: true},
		}},
	} {
		clock := time.Unix(0, 0)
		tr := New(role.failAfter, role.reviveAfter, role.cooldown)
		tr.now = func() time.Time { return clock }
		if !tr.Up() || !tr.Allow() {
			t.Fatalf("%s: a new tracker must be up", role.name)
		}
		for i, s := range role.steps {
			flipped := false
			switch s.op {
			case "wait":
				clock = clock.Add(s.wait)
			default:
				flipped = tr.Record(s.op == "ok")
			}
			if flipped != s.flipped || tr.Up() != s.up || tr.Allow() != s.allow {
				t.Fatalf("%s step %d (%s): flipped=%v up=%v allow=%v, want %v %v %v",
					role.name, i, s.op, flipped, tr.Up(), tr.Allow(), s.flipped, s.up, s.allow)
			}
		}
	}
}
