package congest_test

import (
	"maps"
	"slices"
	"sync"
	"testing"

	"arbods/internal/congest"
	"arbods/internal/gen"
)

// TestResultSurvivesNextRun pins the one Result lifetime: a Result is
// ordinary heap memory, so its Outputs, MessageStats and RoundStats must
// stay intact — and readable without data races — while the same Runner
// executes its next run. Run under -race this fails loudly if the engine
// ever assembles a Result on Runner-owned memory again.
func TestResultSurvivesNextRun(t *testing.T) {
	g := gen.Cycle(200).G
	factory := func(ni congest.NodeInfo) congest.Proc[int64] {
		return &echoProc{ni: ni, rounds: 3}
	}
	r := congest.NewRunner()
	defer r.Close()
	opts := func(seed uint64) []congest.Option {
		return []congest.Option{
			congest.WithSeed(seed), congest.WithRunner(r),
			congest.WithMessageStats(), congest.WithRoundStats(),
		}
	}

	first, err := congest.Run(g, factory, opts(1)...)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(first.Outputs)
	wantStats := maps.Clone(first.MessageStats)
	wantRounds := slices.Clone(first.RoundStats)
	if len(wantStats) == 0 || len(wantRounds) == 0 {
		t.Fatal("stats options not honored; test premise broken")
	}

	// Read the first result continuously while the Runner's next run
	// overwrites every slab it owns.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if !slices.Equal(first.Outputs, want) {
				t.Error("outputs changed under the Runner's next run")
				return
			}
			if !maps.Equal(first.MessageStats, wantStats) {
				t.Error("MessageStats changed under the Runner's next run")
				return
			}
			if !slices.Equal(first.RoundStats, wantRounds) {
				t.Error("RoundStats changed under the Runner's next run")
				return
			}
		}
	}()
	second, err := congest.Run(g, factory, opts(2)...)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if &second.Outputs[0] == &first.Outputs[0] {
		t.Fatal("the next run reused the first Result's Outputs array")
	}
	if !slices.Equal(first.Outputs, want) {
		t.Fatal("outputs changed after the Runner's next run")
	}
}

// TestRoundObserver pins WithRoundObserver against WithRoundStats: the
// streamed stats must be exactly the recorded ones, in order.
func TestRoundObserver(t *testing.T) {
	g := gen.Star(64).G
	factory := func(ni congest.NodeInfo) congest.Proc[int64] {
		return &echoProc{ni: ni, rounds: 2}
	}
	var streamed []congest.RoundStat
	res, err := congest.Run(g, factory,
		congest.WithSeed(7), congest.WithRoundStats(),
		congest.WithRoundObserver(func(rs congest.RoundStat) { streamed = append(streamed, rs) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(res.RoundStats) || len(streamed) == 0 {
		t.Fatalf("observer saw %d rounds, RoundStats recorded %d", len(streamed), len(res.RoundStats))
	}
	for i, rs := range res.RoundStats {
		if streamed[i] != rs {
			t.Fatalf("round %d: observer %+v != recorded %+v", i, streamed[i], rs)
		}
	}
}
