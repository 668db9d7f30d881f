package congest_test

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"

	"arbods/internal/congest"
	"arbods/internal/gen"
	"arbods/internal/graph"
)

// TestMain stamps the CPU topology into every benchmark record, next to
// the goos/goarch/cpu lines the testing package prints. The committed
// BENCH_* trajectory includes records from single-core containers, where
// the workers>1 rows measure pure dispatch overhead rather than scaling —
// the numcpu/gomaxprocs header is what keeps such a record from being
// mistaken for a multicore scaling curve. Emitted only when benchmarks
// are requested, so ordinary test runs stay quiet.
func TestMain(m *testing.M) {
	flag.Parse()
	if f := flag.Lookup("test.bench"); f != nil && f.Value.String() != "" {
		fmt.Printf("numcpu: %d\ngomaxprocs: %d\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	os.Exit(m.Run())
}

// largeGraph caches the million-node benchmark instance across
// sub-benchmarks (generation itself takes seconds at this size).
var largeGraph *graph.Graph

func benchGraph(b *testing.B, n int) *graph.Graph {
	b.Helper()
	if largeGraph == nil || largeGraph.N() != n {
		largeGraph = gen.ErdosRenyi(n, 4/float64(n), 1).G
	}
	return largeGraph
}

// benchWorkers is the worker counts the engine benchmarks sweep: the
// sequential engine, every core of this machine, and 4 (the count the
// older committed records used), deduplicated and ascending.
func benchWorkers() []int {
	ws := []int{1, runtime.GOMAXPROCS(0), 4}
	slices.Sort(ws)
	return slices.Compact(ws)
}

// slabFactory builds echo procs in place in one n-sized slab — the
// in-place construction pattern every library algorithm uses since the
// arena engine, so the benchmark measures the engine, not n heap procs.
func slabFactory(slab []echoProc, rounds int) congest.Factory[int64] {
	return func(ni congest.NodeInfo) congest.Proc[int64] {
		p := &slab[ni.ID]
		*p = echoProc{ni: ni, rounds: rounds}
		return p
	}
}

// warmRun executes one untimed run before b.ResetTimer so committed
// records measure the steady state. The first run in a fresh process pays
// one-time costs — page faults on the just-generated graph, first-touch
// zeroing of the run's large arrays, and for a reused Runner the whole
// buffer build — which at the small iteration counts the committed
// records use (-benchtime with 3 iterations) skew the mean badly: the
// pr7 record's first BenchmarkRouteOnly iteration ran 2.7× its steady
// state, and the RunnerReuse rows averaged the cold bind into the "warm"
// allocs/op.
func warmRun(b *testing.B, g *graph.Graph, slab []echoProc, rounds int, opts ...congest.Option) {
	b.Helper()
	if _, err := congest.Run(g, slabFactory(slab, rounds), opts...); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRunLarge drives the engine end to end on a million-node
// sparse random graph (avg degree ≈ 4, ≈ 2·10⁶ edges): three rounds of
// broadcast traffic, ≈ 12·10⁶ delivered messages per run. workers=1 is
// one shard stepped inline; the other sub-benchmarks run the same step
// phase sharded across the worker pool. Allocation counts are the
// headline: messages are value-typed packets, each inbox is pulled into a
// per-shard scratch slice, rng streams seed in place, and procs build
// into one slab, so allocs/op is O(1) in both the message volume and
// (beyond the slab and the run's few backing arrays) the node count.
func BenchmarkRunLarge(b *testing.B) {
	g := benchGraph(b, 1_000_000)
	slab := make([]echoProc, g.N())
	for _, w := range benchWorkers() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			warmRun(b, g, slab, 2,
				congest.WithSeed(1), congest.WithWorkers(w), congest.WithMode(congest.Local))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := congest.Run(g, slabFactory(slab, 2),
					congest.WithSeed(1), congest.WithWorkers(w), congest.WithMode(congest.Local))
				if err != nil {
					b.Fatal(err)
				}
				if res.Messages == 0 {
					b.Fatal("no traffic routed")
				}
			}
		})
	}
}

// BenchmarkRunnerReuse is BenchmarkRunLarge on one shared Runner — the
// serving pattern: outbox records and slabs, inbox scratch, arena,
// and worker pool all amortized, so per-run setup drops to the
// proc slab and the result.
func BenchmarkRunnerReuse(b *testing.B) {
	g := benchGraph(b, 1_000_000)
	slab := make([]echoProc, g.N())
	for _, w := range benchWorkers() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			r := congest.NewRunner()
			defer r.Close()
			// Warm the Runner before the timer: the first run builds every
			// graph-derived buffer, which is exactly what this benchmark
			// exists to show is amortized away.
			warmRun(b, g, slab, 2,
				congest.WithSeed(1), congest.WithWorkers(w), congest.WithMode(congest.Local),
				congest.WithRunner(r))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := congest.Run(g, slabFactory(slab, 2),
					congest.WithSeed(1), congest.WithWorkers(w), congest.WithMode(congest.Local),
					congest.WithRunner(r))
				if err != nil {
					b.Fatal(err)
				}
				if res.Messages == 0 {
					b.Fatal("no traffic routed")
				}
			}
		})
	}
}

// BenchmarkSweepBatch measures what PR 5 is about: wall-clock throughput
// of a sweep of independent runs (here 8 seeds on a 100k-node sparse
// graph — the shape of one experiment repetition loop), sequential versus
// pipelined across a RunnerPool. parallel=1 is the exact sequential
// reference (one warm Runner, full worker budget); the other
// sub-benchmarks split GOMAXPROCS between concurrent runs, so on a
// ≥ 4-core machine the batch rows should show the multicore scaling
// curve (≈ #cores× up to memory bandwidth) at bit-identical results. On
// a single-core machine all rows degenerate to the sequential engine.
func BenchmarkSweepBatch(b *testing.B) {
	const (
		sweepN    = 100_000
		sweepJobs = 8
	)
	g := gen.ErdosRenyi(sweepN, 4/float64(sweepN), 1).G
	parallels := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		if p > 4 {
			parallels = append(parallels, 4)
		}
		parallels = append(parallels, p)
	}
	for _, par := range parallels {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			sums := make([]int64, sweepJobs)
			jobs := make([]congest.Job, sweepJobs)
			for j := range jobs {
				jobs[j] = func(r *congest.Runner, workers int) error {
					// Each job owns its proc slab — concurrent runs must
					// not share one. Both modes pay the same make, so the
					// comparison stays apples to apples.
					slab := make([]echoProc, g.N())
					res, err := congest.Run(g, slabFactory(slab, 2),
						congest.WithSeed(uint64(j+1)), congest.WithMode(congest.Local),
						congest.WithRunner(r), congest.WithWorkers(workers))
					if err != nil {
						return err
					}
					sums[j] = res.Messages
					return nil
				}
			}
			// One untimed batch warms the pool's Runners (and the OS pages
			// behind the shared graph) so the record measures steady state.
			if err := congest.RunBatch(par, jobs...); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := congest.RunBatch(par, jobs...); err != nil {
					b.Fatal(err)
				}
				for j, s := range sums {
					if s == 0 {
						b.Fatalf("job %d routed no traffic", j)
					}
				}
			}
		})
	}
}

// BenchmarkRouteOnly isolates delivery: one round in which every node
// broadcasts once, then one round in which every node pulls its inbox
// inside its step and terminates, so proc work is negligible next to the
// 2m ≈ 4·10⁶ message deliveries.
func BenchmarkRouteOnly(b *testing.B) {
	g := benchGraph(b, 1_000_000)
	slab := make([]echoProc, g.N())
	for _, w := range benchWorkers() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			warmRun(b, g, slab, 1,
				congest.WithSeed(1), congest.WithWorkers(w), congest.WithMode(congest.Local))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := congest.Run(g, slabFactory(slab, 1),
					congest.WithSeed(1), congest.WithWorkers(w), congest.WithMode(congest.Local)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// hubProc is the mixed-outbox worst case: in round 0 every node sends one
// targeted message to each neighbor in *descending* order (so the step
// phase must regroup the outbox by receiver) with a broadcast halfway
// through, then terminates.
type hubProc struct{ ni congest.NodeInfo }

func (p *hubProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	if round > 0 {
		return true
	}
	nb := p.ni.Neighbors
	for k := len(nb) - 1; k >= 0; k-- {
		s.Send(int(nb[k]), packPing(int64(k)))
		if k == len(nb)/2 {
			s.Broadcast(packPing(-1))
		}
	}
	return false
}

func (p *hubProc) Output() struct{} { return struct{}{} }

// BenchmarkRouteTargeted pins mixed outboxes to time linear in messages:
// a star whose hub sends one targeted message to every leaf plus one
// broadcast. Grouping happens once per sender when it steps, and each
// leaf's pull finds its group with a binary search, so ns/msg stays flat as the
// hub's degree grows 100× — a router that rescanned the hub's outbox per
// receiver would be quadratic and blow up at hub=100000.
func BenchmarkRouteTargeted(b *testing.B) {
	for _, hub := range []int{1_000, 10_000, 100_000} {
		g := gen.Star(hub + 1).G
		slab := make([]hubProc, g.N())
		factory := func(ni congest.NodeInfo) congest.Proc[struct{}] {
			p := &slab[ni.ID]
			*p = hubProc{ni: ni}
			return p
		}
		b.Run(fmt.Sprintf("hub=%d", hub), func(b *testing.B) {
			r := congest.NewRunner()
			defer r.Close()
			var msgs int64
			run := func() {
				res, err := congest.Run(g, factory, congest.WithWorkers(1),
					congest.WithMode(congest.Local), congest.WithRunner(r))
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.Messages
			}
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs*int64(b.N)), "ns/msg")
		})
	}
}
