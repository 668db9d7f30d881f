package congest_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"arbods/internal/congest"
	"arbods/internal/gen"
	"arbods/internal/graph"
)

// batchPoint is one job of the batch-determinism workload: a (graph, seed,
// stats) combination whose full Result the job writes into its slot.
type batchPoint struct {
	g     *graph.Graph
	seed  uint64
	stats bool
}

// batchJob runs the echo workload for point p and stores the Result in
// out[i] — the slot discipline every batch caller follows.
func batchJob(p batchPoint, out []*congest.Result[int64], i int) congest.Job {
	return func(r *congest.Runner) error {
		res, err := congest.Run(p.g, func(ni congest.NodeInfo) congest.Proc[int64] {
			return &echoProc{ni: ni, rounds: 3}
		}, batchOpts(p, congest.WithRunner(r))...)
		if err != nil {
			return fmt.Errorf("job %d: %w", i, err)
		}
		out[i] = res
		return nil
	}
}

func batchOpts(p batchPoint, extra ...congest.Option) []congest.Option {
	o := append([]congest.Option{congest.WithSeed(p.seed), congest.WithRoundStats()}, extra...)
	if p.stats {
		o = append(o, congest.WithMessageStats())
	}
	return o
}

// TestBatchMatchesSequential pins the batch determinism contract: for any
// pool size, a batch over mixed graphs/seeds/option sets produces, slot
// for slot, exactly the Results of transient sequential runs. Under
// -race this is also the concurrency test for RunnerPool checkout —
// every Runner serves many different jobs across goroutines.
func TestBatchMatchesSequential(t *testing.T) {
	graphs := []*graph.Graph{
		gen.ErdosRenyi(300, 0.02, 3).G,
		gen.Grid(15, 20).G,
		gen.Star(200).G,
		gen.ForestUnion(250, 3, 5).G,
	}
	var points []batchPoint
	for i := 0; i < 24; i++ {
		points = append(points, batchPoint{
			g:     graphs[i%len(graphs)],
			seed:  uint64(100 + i/len(graphs)),
			stats: i%3 == 0,
		})
	}
	want := make([]*congest.Result[int64], len(points))
	for i, p := range points {
		res, err := congest.Run(p.g, func(ni congest.NodeInfo) congest.Proc[int64] {
			return &echoProc{ni: ni, rounds: 3}
		}, batchOpts(p)...)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	for _, parallel := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			got := make([]*congest.Result[int64], len(points))
			jobs := make([]congest.Job, len(points))
			for i, p := range points {
				jobs[i] = batchJob(p, got, i)
			}
			if err := congest.RunBatch(parallel, jobs...); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !reflect.DeepEqual(want[i], got[i]) {
					t.Fatalf("slot %d diverges from the sequential run\nwant %+v\n got %+v",
						i, want[i], got[i])
				}
			}
		})
	}
}

// TestBatchAbortedJob: jobs that abort (strict-mode bandwidth violation)
// must not poison the Runner they ran on — later jobs on the same pool
// produce bit-identical results — and Wait must report the error of the
// lowest submission slot, independent of scheduling order.
func TestBatchAbortedJob(t *testing.T) {
	g := gen.Cycle(120).G
	p := batchPoint{g: g, seed: 7, stats: true}
	want, err := congest.Run(g, func(ni congest.NodeInfo) congest.Proc[int64] {
		return &echoProc{ni: ni, rounds: 3}
	}, batchOpts(p)...)
	if err != nil {
		t.Fatal(err)
	}

	pool := congest.NewRunnerPool(2)
	defer pool.Close()
	const jobs = 12
	got := make([]*congest.Result[int64], jobs)
	b := pool.Batch()
	for i := 0; i < jobs; i++ {
		if i%3 == 1 {
			i := i
			b.Submit(func(r *congest.Runner) error {
				_, err := congest.Run(g, func(ni congest.NodeInfo) congest.Proc[struct{}] {
					return &sendOnceProc{target: int(ni.Neighbors[0]), fat: true}
				}, congest.WithSeed(1), congest.WithRunner(r))
				if err == nil {
					return fmt.Errorf("job %d: fat packet did not trip strict mode", i)
				}
				return fmt.Errorf("job %d aborted: %w", i, err)
			})
			continue
		}
		b.Submit(batchJob(p, got, i))
	}
	err = b.Wait()
	if err == nil {
		t.Fatal("Wait returned nil although jobs failed")
	}
	// Slot 1 is the first failing submission; its error must win however
	// the scheduler ordered completions.
	if !strings.Contains(err.Error(), "job 1 aborted") {
		t.Fatalf("Wait error is not the lowest failing slot's: %v", err)
	}
	for i := 0; i < jobs; i++ {
		if i%3 == 1 {
			continue
		}
		if !reflect.DeepEqual(want, got[i]) {
			t.Fatalf("slot %d after aborted neighbors diverges:\nwant %+v\n got %+v", i, want, got[i])
		}
	}
}

// TestRunnerPoolWorkerBudget pins the GOMAXPROCS split: the CPU shares of
// a pool's Runners together never exceed the machine (with the
// at-least-one floor), so batch parallelism does not oversubscribe.
func TestRunnerPoolWorkerBudget(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, size := range []int{1, 2, 3, procs, 2 * procs} {
		pool := congest.NewRunnerPool(size)
		if pool.Size() != size {
			t.Fatalf("Size() = %d, want %d", pool.Size(), size)
		}
		want := procs / size
		if want < 1 {
			want = 1
		}
		if pool.Workers() != want {
			t.Fatalf("size %d: Workers() = %d, want %d", size, pool.Workers(), want)
		}
		pool.Close()
	}
	pool := congest.NewRunnerPool(0)
	defer pool.Close()
	if pool.Size() != procs || pool.Workers() != 1 {
		t.Fatalf("default pool: Size()=%d Workers()=%d, want %d and 1", pool.Size(), pool.Workers(), procs)
	}
}

// TestRunnerPoolGetPut exercises manual checkout: Runners cycle through
// GetContext/Put in arbitrary order and the pool hands every one of them out.
func TestRunnerPoolGetPut(t *testing.T) {
	pool := congest.NewRunnerPool(3)
	defer pool.Close()
	a, b, c := get(t, pool), get(t, pool), get(t, pool)
	if a == b || b == c || a == c {
		t.Fatal("pool handed out the same Runner twice")
	}
	g := gen.Path(50).G
	for _, r := range []*congest.Runner{a, b, c} {
		res, err := congest.Run(g, func(ni congest.NodeInfo) congest.Proc[int64] {
			return &echoProc{ni: ni, rounds: 1}
		}, congest.WithSeed(3), congest.WithRunner(r))
		if err != nil {
			t.Fatal(err)
		}
		if res.Messages == 0 {
			t.Fatal("no traffic routed")
		}
	}
	pool.Put(b)
	pool.Put(a)
	pool.Put(c)
}
