package api

import (
	"encoding/json"
	"testing"
)

// FuzzSolveRequest pins the request contract the solve cache rests on.
// Strict decoding of arbitrary bytes never panics, and whatever it
// accepts round-trips through the wire form. Normalize is idempotent.
// Two accepted requests share a cache key exactly when their normalized
// run-shaping fields are equal: a key that ignored one would serve a
// wrong cached receipt, and one that included a presentation field would
// split a single answer in two. The graph reference stands in for the
// graph ID it resolves to.
func FuzzSolveRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ra, errA := DecodeSolveRequest(a)
		rb, errB := DecodeSolveRequest(b)
		if errA != nil || errB != nil {
			return
		}
		for _, r := range []*SolveRequest{&ra, &rb} {
			wire, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("accepted request does not encode: %+v: %v", *r, err)
			}
			if back, err := DecodeSolveRequest(wire); err != nil || back != *r {
				t.Fatalf("round trip %s: got %+v (%v), want %+v", wire, back, err, *r)
			}
			Normalize(r, 3)
			again := *r
			Normalize(&again, 3)
			if again != *r {
				t.Fatalf("Normalize not idempotent: %+v, then %+v", *r, again)
			}
		}
		runShapingEqual := ra.Graph == rb.Graph && ra.Algorithm == rb.Algorithm &&
			ra.Alpha == rb.Alpha && ra.Eps == rb.Eps && ra.T == rb.T && ra.K == rb.K &&
			ra.Seed == rb.Seed && ra.Mode == rb.Mode && ra.MaxRounds == rb.MaxRounds
		if keysEqual := Key(ra, ra.Graph) == Key(rb, rb.Graph); keysEqual != runShapingEqual {
			t.Fatalf("keys equal = %v, run-shaping fields equal = %v:\n%+v\n%+v", keysEqual, runShapingEqual, ra, rb)
		}
	})
}
