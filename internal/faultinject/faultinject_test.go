package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryNeverFires(t *testing.T) {
	var r *Registry
	if err := r.Fire("any"); err != nil {
		t.Fatalf("nil registry fired: %v", err)
	}
	if err := r.FireRound("any", 3); err != nil {
		t.Fatalf("nil registry fired: %v", err)
	}
	if r.Hits("any") != 0 {
		t.Fatal("nil registry counted hits")
	}
	if r.Chance(1) {
		t.Fatal("nil registry answered Chance true")
	}
	r.Reset() // must not panic
}

func TestFireErrOnce(t *testing.T) {
	r := New(1)
	r.Arm("p", Fault{Round: -1, Err: ErrInjected})
	if err := r.Fire("p"); !errors.Is(err, ErrInjected) {
		t.Fatalf("first fire: %v", err)
	}
	if err := r.Fire("p"); err != nil {
		t.Fatalf("second fire (Times default 1): %v", err)
	}
	if got := r.Hits("p"); got != 2 {
		t.Fatalf("hits = %d, want 2", got)
	}
}

func TestAfterAndTimes(t *testing.T) {
	r := New(1)
	r.Arm("p", Fault{Round: -1, After: 2, Times: 2, Err: ErrInjected})
	var got []bool
	for i := 0; i < 6; i++ {
		got = append(got, r.Fire("p") != nil)
	}
	want := []bool{false, false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire pattern %v, want %v", got, want)
		}
	}
}

func TestRoundMatching(t *testing.T) {
	r := New(1)
	r.Arm("p", Fault{Round: 3, Err: ErrInjected})
	for round := 0; round < 3; round++ {
		if err := r.FireRound("p", round); err != nil {
			t.Fatalf("round %d fired early: %v", round, err)
		}
	}
	if err := r.FireRound("p", 3); !errors.Is(err, ErrInjected) {
		t.Fatalf("round 3: %v", err)
	}
	// A round-pinned fault ignores round-free Fire calls entirely.
	r.Reset()
	r.Arm("p", Fault{Round: 3, Err: ErrInjected})
	if err := r.Fire("p"); err != nil {
		t.Fatalf("round-free fire matched a round-pinned fault: %v", err)
	}
}

func TestPanicAction(t *testing.T) {
	r := New(1)
	r.Arm("p", Fault{Round: -1, Panic: "boom"})
	defer func() {
		if v := recover(); v != "boom" {
			t.Fatalf("recovered %v, want boom", v)
		}
	}()
	_ = r.Fire("p")
	t.Fatal("fire did not panic")
}

func TestDelayAction(t *testing.T) {
	r := New(1)
	r.Arm("p", Fault{Round: -1, Delay: 20 * time.Millisecond})
	start := time.Now()
	if err := r.Fire("p"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("fire returned after %v, want ≥ 20ms", d)
	}
}

func TestFirstMatchWins(t *testing.T) {
	e2 := errors.New("second")
	r := New(1)
	r.Arm("p", Fault{Round: -1, Err: ErrInjected})
	r.Arm("p", Fault{Round: -1, Err: e2, Times: 2})
	if err := r.Fire("p"); !errors.Is(err, ErrInjected) {
		t.Fatalf("first fire: %v", err)
	}
	if err := r.Fire("p"); !errors.Is(err, e2) {
		t.Fatalf("second fire should fall through to the second arm: %v", err)
	}
}

func TestChanceDeterministic(t *testing.T) {
	seq := func(seed uint64) []bool {
		r := New(seed)
		out := make([]bool, 64)
		for i := range out {
			out[i] = r.Chance(0.5)
		}
		return out
	}
	a, b := seq(7), seq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different Chance sequences")
		}
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical Chance sequences")
	}
}

// TestChancePinned pins the first answers of Chance(0.3) after New(42),
// recorded from the Registry's own SplitMix64 copy before it drew from
// rng.Stream: chaos tests that arm "some fraction" keep their sequences.
func TestChancePinned(t *testing.T) {
	r := New(42)
	var got []byte
	for i := 0; i < 16; i++ {
		got = append(got, '0')
		if r.Chance(0.3) {
			got[i] = '1'
		}
	}
	if want := "1000010001000101"; string(got) != want {
		t.Fatalf("Chance(0.3) after New(42) answered %s, want %s", got, want)
	}
}

// TestConcurrentFire exercises the registry under -race: concurrent Fire
// calls against a Times-bounded arm must fire exactly Times times.
func TestConcurrentFire(t *testing.T) {
	r := New(1)
	const times = 10
	r.Arm("p", Fault{Round: -1, Times: times, Err: ErrInjected})
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if r.Fire("p") != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fired != times {
		t.Fatalf("fired %d times, want %d", fired, times)
	}
	if r.Hits("p") != 800 {
		t.Fatalf("hits = %d, want 800", r.Hits("p"))
	}
}
