package congest

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"arbods/internal/graph"
)

// buildStar returns a star: node 0 is the hub, nodes 1..n-1 are leaves.
func buildStar(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// buildBroom returns a broom: a path 0–1–…–(handle−1) whose last node is
// the hub of a star with `bristles` leaves — the skewed-degree shape of
// the lower-bound families, where node-count shards serialize on the
// shard holding the hub and its bristles.
func buildBroom(t *testing.T, handle, bristles int) *graph.Graph {
	t.Helper()
	n := handle + bristles
	b := graph.NewBuilder(n)
	for v := 1; v < handle; v++ {
		b.AddEdge(v-1, v)
	}
	for i := 0; i < bristles; i++ {
		b.AddEdge(handle-1, handle+i)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// buildCycle returns the n-cycle — a 2-regular graph on which the
// degree-weighted cut must degrade to the plain node-count split.
func buildCycle(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// shardWeight is the cumulative node weight (deg+1 per node) of [lo, hi).
func shardWeight(g *graph.Graph, lo, hi int) int {
	return g.AdjOffset(hi) - g.AdjOffset(lo) + (hi - lo)
}

// TestShardBoundsCover pins the partition invariants on every graph
// shape: bounds start at 0, end at n, and never decrease — so the shards
// cover [0, n) exactly, with no gaps and no overlaps, even when a hub
// makes some shards empty.
func TestShardBoundsCover(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"star":  buildStar(t, 1000),
		"broom": buildBroom(t, 500, 500),
		"cycle": buildCycle(t, 1000),
	}
	for name, g := range graphs {
		for _, workers := range []int{1, 2, 3, 4, 7, 16} {
			bounds := shardBounds(g, workers)
			if len(bounds) != workers+1 {
				t.Fatalf("%s workers=%d: %d bounds, want %d", name, workers, len(bounds), workers+1)
			}
			if bounds[0] != 0 || int(bounds[workers]) != g.N() {
				t.Fatalf("%s workers=%d: bounds span [%d,%d], want [0,%d]", name, workers, bounds[0], bounds[workers], g.N())
			}
			for k := 1; k <= workers; k++ {
				if bounds[k] < bounds[k-1] {
					t.Fatalf("%s workers=%d: bounds decrease at %d: %v", name, workers, k, bounds)
				}
			}
		}
	}
}

// TestShardBoundsBalance asserts the one-node overshoot bound on the
// skewed families: every shard's cumulative weight stays below
// total/workers + (Δ+1). On a star or broom a node-count split would give
// the hub's shard ~all of the weight; the degree-weighted split cannot
// exceed a fair share by more than the single node that crossed the
// target.
func TestShardBoundsBalance(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"star":      buildStar(t, 10_000),
		"broom":     buildBroom(t, 5_000, 5_000),
		"long-tail": buildBroom(t, 9_000, 1_000),
	}
	for name, g := range graphs {
		total := g.DegreeSum() + g.N()
		for _, workers := range []int{2, 4, 8} {
			bounds := shardBounds(g, workers)
			limit := total/workers + g.MaxDegree() + 1
			for w := 0; w < workers; w++ {
				got := shardWeight(g, int(bounds[w]), int(bounds[w+1]))
				if got > limit {
					t.Errorf("%s workers=%d shard %d: weight %d > fair share + one node = %d (bounds %v)",
						name, workers, w, got, limit, bounds)
				}
			}
		}
	}
}

// TestShardBoundsRegularDegradesToNodeCount: on a regular graph every
// node weighs the same, so the degree-weighted cut is exactly the
// node-count cut the engine used before.
func TestShardBoundsRegularDegradesToNodeCount(t *testing.T) {
	g := buildCycle(t, 1024)
	for _, workers := range []int{2, 4, 8} {
		bounds := shardBounds(g, workers)
		for k := 0; k <= workers; k++ {
			want := int32(k * 1024 / workers)
			if bounds[k] != want {
				t.Errorf("workers=%d bounds[%d] = %d, want the node-count split %d", workers, k, bounds[k], want)
			}
		}
	}
}

// TestWorkerRule pins the one rule Runner.bind picks a run's worker count
// by. Without WithWorkers, or below 1, a graph below adaptiveWorkersMin
// nodes steps on one worker and a larger one on the Runner's CPU share:
// all of GOMAXPROCS from NewRunner, GOMAXPROCS divided by the pool size
// for a pooled Runner and for the replacement Put checks in for a
// poisoned one. An explicit count wins, clamped to the node count.
func TestWorkerRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	small, large := buildCycle(t, adaptiveWorkersMin-1), buildCycle(t, adaptiveWorkersMin)
	workersOn := func(r *Runner, g *graph.Graph, opts ...Option) int {
		t.Helper()
		if _, err := runFlood(t, g, 8, append(opts, WithRunner(r))...); err != nil {
			t.Fatal(err)
		}
		return r.workers
	}
	check := func(what string, got, want int) {
		t.Helper()
		if got != want {
			t.Errorf("%s: %d workers, want %d", what, got, want)
		}
	}

	fresh := NewRunner()
	defer fresh.Close()
	check("fresh Runner, small graph", workersOn(fresh, small), 1)
	check("fresh Runner, large graph", workersOn(fresh, large), 2)
	check("fresh Runner, large graph, WithWorkers(0)", workersOn(fresh, large, WithWorkers(0)), 2)
	check("fresh Runner, large graph, WithWorkers(-1)", workersOn(fresh, large, WithWorkers(-1)), 2)

	pool := NewRunnerPool(2)
	defer pool.Close()
	a, b := get(t, pool), get(t, pool)
	check("pooled Runner, large graph", workersOn(b, large), 1)
	a.poisoned = true
	pool.Put(a)
	pool.Put(b)
	replacement := get(t, pool)
	if replacement == a || pool.Replaced() != 1 {
		t.Fatalf("Put did not replace the poisoned Runner (replaced %d)", pool.Replaced())
	}
	check("replacement Runner, large graph", workersOn(replacement, large), 1)
	pool.Put(replacement)

	path := buildCycle(t, 100)
	check("WithWorkers(3) on 100 nodes", workersOn(fresh, path, WithWorkers(3)), 3)
	check("WithWorkers(500) on 100 nodes", workersOn(fresh, path, WithWorkers(500)), 100)
}

// get checks a Runner out of p.
func get(t *testing.T, p *RunnerPool) *Runner {
	t.Helper()
	r, err := p.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestShardPadding pins the memory layouts the pull walk depends on. The
// shard struct carries a trailing linePad, so its total size is a 64-byte
// multiple and no cache line can hold live fields of two adjacent shards
// in the Runner's slice, at any backing-array alignment. Its slab headers,
// which other shards' pulls read, sit a full line past the fields it
// writes per node. The outbox head stays 32 bytes — two per cache line —
// because every pull reads one head per sending neighbor.
func TestShardPadding(t *testing.T) {
	var s stepShard
	size := unsafe.Sizeof(s)
	if size%64 != 0 {
		t.Errorf("stepShard is %d bytes — not a cache-line multiple; adjust its padding", size)
	}
	if size < 64+unsafe.Sizeof(linePad{}) {
		t.Errorf("stepShard is %d bytes — smaller than its own padding plus one line?", size)
	}
	if gap := unsafe.Offsetof(s.bcs) - (unsafe.Offsetof(s.stats) + unsafe.Sizeof(s.stats)); gap < 64 {
		t.Errorf("slab headers start %d bytes past the per-node fields, want a full line", gap)
	}
	if head := unsafe.Sizeof(outbox{}); head != 32 {
		t.Errorf("outbox head is %d bytes, want 32", head)
	}
}

// TestTouchBlocks pins how touch cuts a range into blocks and what it
// loads, on a broom whose hub has more than touchSlots neighbors: blocks
// of touchBlock nodes, a block cut before the hub, the hub alone in a
// block that touches only its first touchSlots slots, and a sink that
// adds the n of the heads whose sent flag is set and of no other head.
func TestTouchBlocks(t *testing.T) {
	const handle = 200
	g := buildBroom(t, handle, touchSlots+10)
	n, hub := g.N(), handle-1
	r := &Runner{g: g, n: n}
	r.sent[1], r.outs[1] = make([]bool, n), make([]outbox, n)
	for v := range n {
		r.sent[1][v] = v%2 == 0
		r.outs[1][v].n = 1
		if v%2 != 0 {
			r.outs[1][v].n = 1000 // a stale head the touch must not add
		}
	}
	e := &engine[int]{Runner: r}
	var s stepShard
	var ends []int
	for lo := 0; lo < n; {
		lo = e.touch(&s, lo, n, 1)
		ends = append(ends, lo)
	}
	var want []int
	for lo := touchBlock; lo < hub; lo += touchBlock {
		want = append(want, lo)
	}
	want = append(want, hub, hub+1)
	for lo := hub + 1; lo < n; lo += touchBlock {
		want = append(want, min(lo+touchBlock, n))
	}
	if !slices.Equal(ends, want) {
		t.Errorf("block ends %v, want %v", ends, want)
	}
	var sent int32
	for v := range n {
		for i, u := range g.Neighbors(v) {
			if u%2 == 0 && (v != hub || i < touchSlots) {
				sent++
			}
		}
	}
	if s.sink != sent {
		t.Errorf("sink %d, want the %d touched slots whose neighbor sent", s.sink, sent)
	}
}

// floodProc broadcasts a fixed packet for `rounds` rounds, then
// terminates. Nodes with earlier deadlines keep receiving traffic after
// they are done, exercising the dropped-message accounting.
type floodProc struct {
	ni     NodeInfo
	rounds int
	bits   uint32
	got    int64
}

func (p *floodProc) Step(round int, in []Incoming, s *Sender) bool {
	p.got += int64(len(in))
	if round >= p.rounds {
		return true
	}
	s.Broadcast(Packet{Tag: MaxTags - 1, Bits: p.bits})
	return false
}

func (p *floodProc) Output() int64 { return p.got }

// runFlood executes a flood run where node v stops after 1+v%3 rounds.
func runFlood(t *testing.T, g *graph.Graph, bits uint32, opts ...Option) (*Result[int64], error) {
	t.Helper()
	slab := make([]floodProc, g.N())
	return Run(g, func(ni NodeInfo) Proc[int64] {
		p := &slab[ni.ID]
		*p = floodProc{ni: ni, rounds: 1 + ni.ID%3, bits: bits}
		return p
	}, opts...)
}

// TestBandwidthErrorWorkerInvariance pins the strict-mode abort across
// engine layouts: every worker count must report the identical
// *BandwidthError — the lowest violating sender, then its lowest
// receiver — and it must match the error recorded from the route-phase
// router, which found violations on the receiving side. The flood cases
// violate on broadcasts alone, so the lowest receiver is the sender's
// Neighbors[0]; the tail cases (tailProc) violate only on a targeted
// edge to the sender's highest neighbor, so it is not.
func TestBandwidthErrorWorkerInvariance(t *testing.T) {
	flood := func(g *graph.Graph, w int) error {
		_, err := runFlood(t, g, 1<<12, WithSeed(5), WithWorkers(w), WithBandwidth(64))
		return err
	}
	tail := func(g *graph.Graph, w int) error {
		_, err := runTail(g, WithSeed(5), WithWorkers(w), WithBandwidth(64))
		return err
	}
	for _, c := range []struct {
		name     string
		g        *graph.Graph
		run      func(*graph.Graph, int) error
		notFirst bool // the violating receiver is not the sender's Neighbors[0]
		want     BandwidthError
	}{
		{"flood/broom", buildBroom(t, 400, 400), flood, false, BandwidthError{Round: 0, From: 0, To: 1, Bits: 4096, Budget: 64}},
		{"flood/star", buildStar(t, 500), flood, false, BandwidthError{Round: 0, From: 0, To: 1, Bits: 4096, Budget: 64}},
		{"tail/star", buildStar(t, 500), tail, true, BandwidthError{Round: 0, From: 0, To: 499, Bits: 72, Budget: 64}},
		{"tail/cycle", buildCycle(t, 300), tail, true, BandwidthError{Round: 0, From: 0, To: 299, Bits: 72, Budget: 64}},
	} {
		for _, w := range []int{1, 2, 4, 7} {
			err := c.run(c.g, w)
			be, ok := err.(*BandwidthError)
			if !ok {
				t.Fatalf("%s workers=%d: got %v, want a *BandwidthError", c.name, w, err)
			}
			if *be != c.want {
				t.Errorf("%s workers=%d: error %#v, want %#v", c.name, w, *be, c.want)
			}
		}
		if first := int(c.g.Neighbors(c.want.From)[0]) == c.want.To; first == c.notFirst {
			t.Errorf("%s: violating receiver %d is Neighbors[0]: %v, want %v — the scenario lost its teeth",
				c.name, c.want.To, first, !c.notFirst)
		}
	}
}

// TestAuditAccountingWorkerInvariance pins the full audit-mode transcript
// — violations, dropped messages, per-edge maxima, tag statistics, round
// stats, outputs — across worker counts on skewed graphs, where the
// degree-weighted boundaries put hubs and leaves in different shards than
// the old node-count split would have.
func TestAuditAccountingWorkerInvariance(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"broom": buildBroom(t, 300, 300),
		"star":  buildStar(t, 400),
		"cycle": buildCycle(t, 300),
	} {
		var want *Result[int64]
		for _, w := range []int{1, 2, 4} {
			res, err := runFlood(t, g, 160, WithSeed(7), WithWorkers(w), WithBandwidth(128),
				WithMode(CongestAudit), WithRoundStats(), WithMessageStats())
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if res.BandwidthViolations == 0 {
				t.Fatalf("%s: audit run recorded no violations — the scenario lost its teeth", name)
			}
			if res.DroppedMessages == 0 {
				t.Fatalf("%s: no dropped messages — the scenario lost its teeth", name)
			}
			if want == nil {
				want = res
				continue
			}
			if !reflect.DeepEqual(res, want) {
				t.Errorf("%s workers=%d: result diverges from workers=1\n got: %+v\nwant: %+v", name, w, res, want)
			}
		}
	}
}
