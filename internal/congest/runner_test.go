package congest_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"arbods/internal/congest"
	"arbods/internal/gen"
	"arbods/internal/graph"
)

// runEcho runs the echo workload and returns the full Result.
func runEcho(t *testing.T, g *graph.Graph, opts ...congest.Option) *congest.Result[int64] {
	t.Helper()
	res, err := congest.Run(g, func(ni congest.NodeInfo) congest.Proc[int64] {
		return &echoProc{ni: ni, rounds: 3}
	}, append([]congest.Option{congest.WithSeed(9), congest.WithRoundStats(), congest.WithMessageStats()}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunnerAcrossGraphsAndWorkers reuses one Runner across different
// graphs, alternating worker counts (pool growth, shrink, sequential), and
// interleaving revisits of earlier graphs. Every reused run must equal the
// transient-state run bit for bit.
func TestRunnerAcrossGraphsAndWorkers(t *testing.T) {
	graphs := []*graph.Graph{
		gen.ErdosRenyi(500, 0.01, 3).G,
		gen.Grid(20, 25).G,
		gen.Star(300).G,
		gen.ErdosRenyi(500, 0.01, 3).G, // same shape, different *graph.Graph
	}
	r := congest.NewRunner()
	defer r.Close()
	schedule := []struct {
		gi, workers int
	}{
		{0, 1}, {0, 4}, {1, 2}, {2, 8}, {0, 4}, {3, 1}, {1, 1}, {2, 2},
	}
	for i, s := range schedule {
		want := runEcho(t, graphs[s.gi], congest.WithWorkers(s.workers))
		got := runEcho(t, graphs[s.gi], congest.WithWorkers(s.workers), congest.WithRunner(r))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("step %d (graph %d, workers=%d): reused Runner diverges from transient run\nwant %+v\n got %+v",
				i, s.gi, s.workers, want, got)
		}
	}
}

// TestRunnerAfterAbortedRun: an aborted run must leave the Runner
// reusable, with the next run's transcript unaffected — both for a
// bandwidth abort (strict-mode violation) and for a Sender-error abort,
// which poison different shard state.
func TestRunnerAfterAbortedRun(t *testing.T) {
	g := gen.Cycle(100).G
	r := congest.NewRunner()
	defer r.Close()
	want := runEcho(t, g)

	_, err := congest.Run(g, func(ni congest.NodeInfo) congest.Proc[struct{}] {
		return &sendOnceProc{target: int(ni.Neighbors[0]), fat: true}
	}, congest.WithRunner(r))
	if err == nil {
		t.Fatal("fat packet did not trip strict mode")
	}
	if got := runEcho(t, g, congest.WithRunner(r)); !reflect.DeepEqual(want, got) {
		t.Fatalf("post-bandwidth-abort reuse diverges:\nwant %+v\n got %+v", want, got)
	}

	_, err = congest.Run(g, func(ni congest.NodeInfo) congest.Proc[struct{}] {
		return &rogueProc{ni: ni} // sends to a non-neighbor: a Sender error
	}, congest.WithRunner(r))
	if err == nil {
		t.Fatal("non-neighbor send did not abort")
	}
	if got := runEcho(t, g, congest.WithRunner(r)); !reflect.DeepEqual(want, got) {
		t.Fatalf("post-sender-error reuse diverges:\nwant %+v\n got %+v", want, got)
	}
}

// TestRunnerCloseReleasesPool: Close tears the worker goroutines down, and
// a closed Runner can still serve runs (the pool is rebuilt on demand).
func TestRunnerCloseReleasesPool(t *testing.T) {
	g := gen.ErdosRenyi(400, 0.01, 7).G
	before := runtime.NumGoroutine()
	r := congest.NewRunner()
	want := runEcho(t, g, congest.WithWorkers(8))
	got := runEcho(t, g, congest.WithWorkers(8), congest.WithRunner(r))
	r.Close()
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines grew from %d to %d after Close", before, after)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("pooled run diverged")
	}
	// Reuse after Close rebuilds the pool transparently.
	again := runEcho(t, g, congest.WithWorkers(8), congest.WithRunner(r))
	defer r.Close()
	if !reflect.DeepEqual(want, again) {
		t.Fatal("run after Close diverged")
	}
}

// nestedProc tries to start a run on the Runner that is currently driving
// it — the one misuse the mid-run guard must reject.
type nestedProc struct {
	r   *congest.Runner
	g   *graph.Graph
	err error
}

func (p *nestedProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	_, p.err = congest.Run(p.g, func(ni congest.NodeInfo) congest.Proc[struct{}] {
		return &foreverProc{}
	}, congest.WithRunner(p.r))
	return true
}

func (p *nestedProc) Output() error { return p.err }

// TestRunnerMidRunGuard: starting a run on a busy Runner fails cleanly
// instead of corrupting the outer run's state.
func TestRunnerMidRunGuard(t *testing.T) {
	g := gen.Path(2).G
	r := congest.NewRunner()
	defer r.Close()
	res, err := congest.Run(g, func(ni congest.NodeInfo) congest.Proc[error] {
		return &nestedProc{r: r, g: g}
	}, congest.WithRunner(r))
	if err != nil {
		t.Fatal(err)
	}
	for v, nested := range res.Outputs {
		if nested == nil {
			t.Fatalf("node %d: nested run on a busy Runner did not error", v)
		}
	}
}
