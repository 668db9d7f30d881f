package congest_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"arbods/internal/congest"
	"arbods/internal/gen"
)

// chattyProc broadcasts for a fixed number of rounds — a long enough run
// to cancel somewhere in the middle — and sums what it hears, so results
// are sensitive to every delivered message.
type chattyProc struct {
	ni     congest.NodeInfo
	rounds int
	sum    int64
}

func (p *chattyProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	for _, m := range in {
		p.sum += pingPayload(m.P)
	}
	if round < p.rounds {
		s.Broadcast(packPing(int64(p.ni.ID) + int64(round)))
		return false
	}
	return true
}

func (p *chattyProc) Output() int64 { return p.sum }

// get checks a Runner out of pool, failing the test if it cannot.
func get(t *testing.T, pool *congest.RunnerPool) *congest.Runner {
	t.Helper()
	r, err := pool.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func chattyFactory(rounds int) congest.Factory[int64] {
	return func(ni congest.NodeInfo) congest.Proc[int64] {
		return &chattyProc{ni: ni, rounds: rounds}
	}
}

// TestRunContextCancelMidRun pins the cancellation contract: a context
// canceled mid-run aborts at the next per-round barrier (within one
// round, no partial results), and the aborted Runner is immediately
// reusable — its next run is bit-identical to one on a fresh Runner.
func TestRunContextCancelMidRun(t *testing.T) {
	g := gen.Cycle(96).G
	factory := chattyFactory(40)

	ref, err := congest.Run(g, factory, congest.WithSeed(1), congest.WithMessageStats())
	if err != nil {
		t.Fatal(err)
	}

	r := congest.NewRunner()
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lastRound := -1
	res, err := congest.Run(g, factory,
		congest.WithContext(ctx), congest.WithSeed(1), congest.WithRunner(r),
		congest.WithRoundObserver(func(rs congest.RoundStat) {
			lastRound = rs.Round
			if rs.Round == 2 {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled run returned partial results")
	}
	// The observer fires after each completed round; the cancel lands in
	// round 2's observer and the barrier check runs before round 3 steps,
	// so round 2 must be the last round that executed.
	if lastRound != 2 {
		t.Fatalf("last completed round %d, want 2 (abort within one round)", lastRound)
	}

	// The aborted Runner serves the next run bit-identically.
	got, err := congest.Run(g, factory,
		congest.WithSeed(1), congest.WithMessageStats(), congest.WithRunner(r))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("post-cancel run deviates from fresh-Runner reference:\n%+v\nvs\n%+v", ref, got)
	}
}

// TestRunContextPreCanceled: an already-dead context aborts before any
// round executes.
func TestRunContextPreCanceled(t *testing.T) {
	g := gen.Cycle(8).G
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	rounds := 0
	obs := congest.WithRoundObserver(func(congest.RoundStat) { rounds++ })
	if _, err := congest.Run(g, chattyFactory(5), congest.WithContext(ctx), obs); !errors.Is(err, context.Canceled) {
		t.Fatalf("WithContext err = %v", err)
	}
	if rounds != 0 {
		t.Fatalf("%d rounds executed under a pre-canceled context", rounds)
	}
}

// TestGetContextCancel: a checkout waiting on an exhausted pool is
// cancellable; a free Runner is preferred over an expired context.
func TestGetContextCancel(t *testing.T) {
	pool := congest.NewRunnerPool(1)
	defer pool.Close()

	held := get(t, pool) // exhaust the pool
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := pool.GetContext(ctx)
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiting GetContext err = %v, want context.Canceled", err)
	}
	pool.Put(held)

	// With capacity available the same dead context still checks out.
	r, err := pool.GetContext(ctx)
	if err != nil || r == nil {
		t.Fatalf("GetContext with free capacity: (%v, %v)", r, err)
	}
	pool.Put(r)
}

// TestRunnerPoolClosedCheckout: checkouts fail fast on a closed pool
// instead of blocking forever, and Close is idempotent.
func TestRunnerPoolClosedCheckout(t *testing.T) {
	pool := congest.NewRunnerPool(2)
	pool.Close()
	if _, err := pool.GetContext(context.Background()); !errors.Is(err, congest.ErrPoolClosed) {
		t.Fatalf("GetContext err = %v, want ErrPoolClosed", err)
	}
	pool.Close() // must not panic
}

// TestRunnerPoolCloseUnblocksWaiter reproduces the pre-fix deadlock: a
// checkout already waiting when Close drains the last Runner used to block
// forever. Now the waiter either wins the race for the returning Runner
// (and checks it back in) or fails fast with ErrPoolClosed.
func TestRunnerPoolCloseUnblocksWaiter(t *testing.T) {
	pool := congest.NewRunnerPool(1)
	held := get(t, pool)

	type checkout struct {
		r   *congest.Runner
		err error
	}
	got := make(chan checkout, 1)
	go func() {
		r, err := pool.GetContext(context.Background())
		got <- checkout{r, err}
	}()

	closed := make(chan struct{})
	go func() {
		pool.Close()
		close(closed)
	}()
	pool.Put(held)

	c := <-got // deadlocks here without the closed-channel fix
	if c.err == nil {
		pool.Put(c.r) // waiter won the race; hand the Runner back so Close finishes
	} else if !errors.Is(c.err, congest.ErrPoolClosed) {
		t.Fatalf("waiter err = %v, want ErrPoolClosed or success", c.err)
	}
	<-closed
}
