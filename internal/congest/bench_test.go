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
// reference (one warm Runner with all of GOMAXPROCS as its share); the
// other sub-benchmarks split GOMAXPROCS between concurrent runs, so on a
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
				jobs[j] = func(r *congest.Runner) error {
					// Each job owns its proc slab — concurrent runs must
					// not share one. Both modes pay the same make, so the
					// comparison stays apples to apples.
					slab := make([]echoProc, g.N())
					res, err := congest.Run(g, slabFactory(slab, 2),
						congest.WithSeed(uint64(j+1)), congest.WithMode(congest.Local),
						congest.WithRunner(r))
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

// sparseEchoProc is the light-round workload: in each of `rounds` rounds a
// hashed 1% of the nodes broadcast, the shape of the Lemma 4.6 extension
// rounds, where only sampled and newly dominated nodes speak. With sleep
// set a node sleeps until the next round in which it speaks, as an
// extension node outside Γ sleeps until the next phase, and mail wakes it;
// the sums come out the same either way.
type sparseEchoProc struct {
	ni     congest.NodeInfo
	rounds int
	sleep  bool
	next   int // with sleep: the next round this node speaks in, or rounds
	sum    int64
}

// speaks reports whether node v broadcasts in round r.
func speaks(v, r int) bool {
	h := (uint64(v)<<32 | uint64(r)) * 0x9E3779B97F4A7C15
	return (h^h>>32)%100 == 0
}

// nextSpeak returns the first round from r on in which the node speaks,
// or p.rounds if none.
func (p *sparseEchoProc) nextSpeak(r int) int {
	for r < p.rounds && !speaks(p.ni.ID, r) {
		r++
	}
	return r
}

func (p *sparseEchoProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	for _, m := range in {
		p.sum += pingPayload(m.P)
	}
	if round >= p.rounds {
		return true
	}
	if !p.sleep {
		if speaks(p.ni.ID, round) {
			s.Broadcast(packPing(int64(round)))
		}
		return false
	}
	if round == 0 {
		p.next = p.nextSpeak(0)
	}
	if round == p.next {
		s.Broadcast(packPing(int64(round)))
		p.next = p.nextSpeak(round + 1)
	}
	congest.SleepUntil(s, p.next)
	return false
}

func (p *sparseEchoProc) Output() int64 { return p.sum }

// BenchmarkRunSparse measures light rounds: a 10⁵-node Barabási–Albert
// graph (m = 3, so 6·10⁵ directed slots and hubs of degree in the
// hundreds) on a warm Runner, where a hashed 1% of the nodes broadcast in
// each of 100 rounds — a few thousand messages per round. Every round
// after the first follows a sparse one, so it pulls only at the marked
// receivers and is stepped on the node-count layout: ns/round is the
// per-node Step floor plus the mark pass, not a walk of every slot. The
// sleep rows run the same traffic with every node asleep between the
// rounds it speaks in, so only speakers and receivers are stepped.
func BenchmarkRunSparse(b *testing.B) {
	const rounds = 100
	g := gen.BarabasiAlbert(100_000, 3, 1).G
	slab := make([]sparseEchoProc, g.N())
	var sums [2]int64 // total received, awake and asleep
	for i, sleep := range []bool{false, true} {
		factory := func(ni congest.NodeInfo) congest.Proc[int64] {
			p := &slab[ni.ID]
			*p = sparseEchoProc{ni: ni, rounds: rounds, sleep: sleep}
			return p
		}
		prefix := ""
		if sleep {
			prefix = "sleep/"
		}
		for _, w := range benchWorkers() {
			b.Run(fmt.Sprintf("%sworkers=%d", prefix, w), func(b *testing.B) {
				r := congest.NewRunner()
				defer r.Close()
				run := func() {
					res, err := congest.Run(g, factory, congest.WithSeed(1), congest.WithWorkers(w),
						congest.WithMode(congest.Local), congest.WithRunner(r))
					if err != nil {
						b.Fatal(err)
					}
					if res.Messages == 0 {
						b.Fatal("no traffic routed")
					}
					sums[i] = 0
					for _, x := range res.Outputs {
						sums[i] += x
					}
				}
				run() // warm the Runner and the graph's pages
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64((rounds+1)*b.N), "ns/round")
			})
		}
	}
	if sums[1] != sums[0] {
		b.Fatalf("sleeping nodes received %d, awake ones %d", sums[1], sums[0])
	}
}
