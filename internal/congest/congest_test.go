package congest_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"arbods/internal/congest"
	"arbods/internal/gen"
	"arbods/internal/graph"
)

// Test tags live above the library tag space (still charged MsgTagBits,
// matching the legacy interface path).
const (
	tagPing  = congest.Tag(16)
	tagToken = congest.Tag(17)
)

// packPing builds a fixed-shape test packet carrying one int64.
func packPing(payload int64) congest.Packet {
	return congest.Packet{
		Tag:  tagPing,
		Bits: uint32(congest.MsgTagBits + congest.BitsInt(payload)),
		A:    uint64(payload),
	}
}

func pingPayload(p congest.Packet) int64 { return int64(p.A) }

// fatPacket claims an enormous size, to trigger bandwidth enforcement.
func fatPacket() congest.Packet {
	return congest.Packet{Tag: tagPing, Bits: 1 << 20}
}

// echoProc broadcasts its ID for a fixed number of rounds and records the
// sum of everything it hears. Output: the sum.
type echoProc struct {
	ni     congest.NodeInfo
	rounds int
	sum    int64
}

func (p *echoProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	for _, m := range in {
		if m.P.Tag == tagPing {
			p.sum += pingPayload(m.P)
		}
	}
	if round < p.rounds {
		s.Broadcast(packPing(int64(p.ni.ID)))
		return false
	}
	return true
}

func (p *echoProc) Output() int64 { return p.sum }

func TestEchoSums(t *testing.T) {
	g := gen.Cycle(10).G
	const rounds = 3
	factory := func(ni congest.NodeInfo) congest.Proc[int64] {
		return &echoProc{ni: ni, rounds: rounds}
	}
	res, err := congest.Run(g, factory)
	if err != nil {
		t.Fatal(err)
	}
	// Each node hears both cycle neighbors for `rounds` rounds.
	for v := 0; v < g.N(); v++ {
		left := (v + 9) % 10
		right := (v + 1) % 10
		want := int64(rounds) * int64(left+right)
		if res.Outputs[v] != want {
			t.Fatalf("node %d heard %d, want %d", v, res.Outputs[v], want)
		}
	}
	if res.Rounds != rounds+1 {
		t.Fatalf("rounds = %d, want %d", res.Rounds, rounds+1)
	}
	// 10 nodes × 2 neighbors × `rounds` broadcasts.
	if res.Messages != int64(10*2*rounds) {
		t.Fatalf("messages = %d", res.Messages)
	}
}

type sendOnceProc struct {
	target int
	fat    bool
	sent   bool
}

func (p *sendOnceProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	if !p.sent {
		p.sent = true
		if p.fat {
			s.Send(p.target, fatPacket())
		} else {
			s.Send(p.target, packPing(0))
		}
		return false
	}
	return true
}

func (p *sendOnceProc) Output() struct{} { return struct{}{} }

func TestBandwidthEnforcement(t *testing.T) {
	g := gen.Path(2).G
	factory := func(ni congest.NodeInfo) congest.Proc[struct{}] {
		return &sendOnceProc{target: 1 - ni.ID, fat: ni.ID == 0}
	}
	_, err := congest.Run(g, factory)
	var be *congest.BandwidthError
	if !errors.As(err, &be) {
		t.Fatalf("want BandwidthError, got %v", err)
	}
	if be.From != 0 || be.To != 1 {
		t.Fatalf("violation attributed to %d→%d", be.From, be.To)
	}
	// Audit mode records instead of failing.
	res, err := congest.Run(g, factory, congest.WithMode(congest.CongestAudit))
	if err != nil {
		t.Fatal(err)
	}
	if res.BandwidthViolations == 0 {
		t.Fatal("audit mode recorded no violations")
	}
	// LOCAL mode has no budget at all.
	res, err = congest.Run(g, factory, congest.WithMode(congest.Local))
	if err != nil {
		t.Fatal(err)
	}
	if res.BandwidthViolations != 0 || res.Bandwidth != 0 {
		t.Fatal("local mode should not track violations")
	}
}

type rogueProc struct{ ni congest.NodeInfo }

func (p *rogueProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	// Node 0 tries to message non-neighbor node 2 on a path 0-1-2.
	if p.ni.ID == 0 {
		s.Send(2, packPing(0))
	}
	return true
}

func (p *rogueProc) Output() struct{} { return struct{}{} }

func TestNonNeighborRejected(t *testing.T) {
	g := gen.Path(3).G
	_, err := congest.Run(g, func(ni congest.NodeInfo) congest.Proc[struct{}] {
		return &rogueProc{ni: ni}
	})
	if err == nil {
		t.Fatal("expected error for non-neighbor send")
	}
}

type foreverProc struct{}

func (p *foreverProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool { return false }
func (p *foreverProc) Output() struct{}                                              { return struct{}{} }

func TestMaxRounds(t *testing.T) {
	g := gen.Path(2).G
	_, err := congest.Run(g, func(congest.NodeInfo) congest.Proc[struct{}] {
		return &foreverProc{}
	}, congest.WithMaxRounds(10))
	if err == nil {
		t.Fatal("expected max-rounds error")
	}
}

// randProc outputs a few random bits, to check seed plumbing and
// engine-parallelism determinism.
type randProc struct {
	ni  congest.NodeInfo
	out uint64
}

func (p *randProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	p.out = p.ni.Rand.Uint64()
	return true
}

func (p *randProc) Output() uint64 { return p.out }

func TestSeedDeterminism(t *testing.T) {
	g := gen.ForestUnion(64, 2, 3).G
	run := func(seed uint64, workers int) []uint64 {
		res, err := congest.Run(g, func(ni congest.NodeInfo) congest.Proc[uint64] {
			return &randProc{ni: ni}
		}, congest.WithSeed(seed), congest.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs
	}
	a := run(7, 1)
	b := run(7, 8)
	c := run(8, 1)
	diff := false
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("worker-count changed node %d's randomness", v)
		}
		if a[v] != c[v] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical randomness")
	}
}

func TestRoundStats(t *testing.T) {
	g := gen.Cycle(6).G
	res, err := congest.Run(g, func(ni congest.NodeInfo) congest.Proc[int64] {
		return &echoProc{ni: ni, rounds: 2}
	}, congest.WithRoundStats())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RoundStats) != res.Rounds {
		t.Fatalf("stats for %d rounds, ran %d", len(res.RoundStats), res.Rounds)
	}
	var total int64
	for _, st := range res.RoundStats {
		total += st.Messages
	}
	if total != res.Messages {
		t.Fatalf("per-round messages sum %d != total %d", total, res.Messages)
	}
}

// TestKnowledgeFlags pins the one global parameter the engine hands every
// node: n. Algorithms that assume Δ or α known pass them to their procs
// themselves.
func TestKnowledgeFlags(t *testing.T) {
	g := gen.Star(5).G
	res, err := congest.Run(g, func(ni congest.NodeInfo) congest.Proc[int] {
		return &knowProc{n: ni.N}
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, n := range res.Outputs {
		if n != 5 {
			t.Fatalf("node %d saw N = %d, want 5", v, n)
		}
	}
}

type knowProc struct{ n int }

func (p *knowProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool { return true }
func (p *knowProc) Output() int                                                   { return p.n }

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).MustBuild()
	res, err := congest.Run(g, func(ni congest.NodeInfo) congest.Proc[int64] {
		return &echoProc{ni: ni, rounds: 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 0 || res.Rounds != 0 {
		t.Fatalf("empty graph ran %d rounds", res.Rounds)
	}
}

// doubleSendProc sends two messages over the same edge in one round; their
// bits must be summed against the budget (they share one B-bit slot).
type doubleSendProc struct {
	ni   congest.NodeInfo
	sent bool
}

func (p *doubleSendProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	if p.ni.ID == 0 && !p.sent {
		p.sent = true
		s.Send(1, packPing(1))
		s.Send(1, packPing(2))
		return false
	}
	return true
}

func (p *doubleSendProc) Output() struct{} { return struct{}{} }

func TestMultiMessageEdgeAccounting(t *testing.T) {
	g := gen.Path(2).G
	factory := func(ni congest.NodeInfo) congest.Proc[struct{}] {
		return &doubleSendProc{ni: ni}
	}
	// Budget below the sum of the two messages but above each single one.
	one := int(packPing(1).Bits)
	res, err := congest.Run(g, factory, congest.WithBandwidth(one+1))
	if err == nil {
		t.Fatalf("two messages (%d+%d bits) fit a %d-bit edge slot: %+v",
			one, packPing(2).Bits, one+1, res)
	}
	// With a budget covering both, the run succeeds and MaxEdgeBits shows
	// the aggregated volume.
	res, err = congest.Run(g, factory, congest.WithBandwidth(64))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxEdgeBits <= one {
		t.Fatalf("MaxEdgeBits=%d does not reflect aggregation", res.MaxEdgeBits)
	}
}

func TestMessageStats(t *testing.T) {
	g := gen.Cycle(5).G
	res, err := congest.Run(g, func(ni congest.NodeInfo) congest.Proc[int64] {
		return &echoProc{ni: ni, rounds: 2}
	}, congest.WithMessageStats())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MessageStats) != 1 {
		t.Fatalf("stats: %+v", res.MessageStats)
	}
	var total int64
	for _, st := range res.MessageStats {
		total += st.Count
		if st.Bits <= 0 {
			t.Fatal("zero bits recorded")
		}
	}
	if total != res.Messages {
		t.Fatalf("per-type counts sum %d != %d", total, res.Messages)
	}
}

// TestNoGoroutineLeaks: the engine joins all its workers every round; a
// run must not leave goroutines behind.
func TestNoGoroutineLeaks(t *testing.T) {
	g := gen.ForestUnion(300, 2, 3).G
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := congest.Run(g, func(ni congest.NodeInfo) congest.Proc[int64] {
			return &echoProc{ni: ni, rounds: 3}
		}, congest.WithWorkers(8)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	after := runtime.NumGoroutine()
	if after > before+2 {
		t.Fatalf("goroutines grew from %d to %d", before, after)
	}
}

func TestBitsHelpers(t *testing.T) {
	tests := []struct {
		x    uint64
		want int
	}{
		{0, 1}, {1, 1}, {2, 2}, {255, 8}, {256, 9},
	}
	for _, tt := range tests {
		if got := congest.BitsUint(tt.x); got != tt.want {
			t.Fatalf("BitsUint(%d) = %d, want %d", tt.x, got, tt.want)
		}
	}
	if congest.BitsInt(-5) != 1+congest.BitsUint(5) {
		t.Fatal("BitsInt sign accounting wrong")
	}
	if congest.DefaultBandwidth(1024) != 32*10 {
		t.Fatalf("DefaultBandwidth(1024) = %d", congest.DefaultBandwidth(1024))
	}
}

// badTagProc sends a packet whose tag is outside the tag space.
type badTagProc struct{ ni congest.NodeInfo }

func (p *badTagProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	if p.ni.ID == 0 {
		s.Broadcast(congest.Packet{Tag: congest.MaxTags, Bits: congest.MsgTagBits})
	}
	return true
}

func (p *badTagProc) Output() struct{} { return struct{}{} }

func TestOutOfRangeTagRejected(t *testing.T) {
	g := gen.Path(2).G
	_, err := congest.Run(g, func(ni congest.NodeInfo) congest.Proc[struct{}] {
		return &badTagProc{ni: ni}
	})
	if err == nil {
		t.Fatal("expected error for tag ≥ MaxTags")
	}
}

// zeroBitsProc hand-assembles a packet without setting Bits; the engine
// must reject it rather than undercount the bandwidth accounting.
type zeroBitsProc struct{ ni congest.NodeInfo }

func (p *zeroBitsProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	if p.ni.ID == 0 {
		s.Broadcast(congest.Packet{Tag: tagPing})
	}
	return true
}

func (p *zeroBitsProc) Output() struct{} { return struct{}{} }

func TestBelowTagHeaderBitsRejected(t *testing.T) {
	g := gen.Path(2).G
	_, err := congest.Run(g, func(ni congest.NodeInfo) congest.Proc[struct{}] {
		return &zeroBitsProc{ni: ni}
	})
	if err == nil {
		t.Fatal("expected error for Bits < MsgTagBits")
	}
}

func TestTagNames(t *testing.T) {
	if congest.TagJoin.String() != "join" || congest.TagPacking.String() != "packing" {
		t.Fatalf("library tag names wrong: %v %v", congest.TagJoin, congest.TagPacking)
	}
	if congest.Tag(20).String() != "tag-20" {
		t.Fatalf("fallback tag name wrong: %v", congest.Tag(20))
	}
	p := congest.TagOnly(congest.TagDom)
	if p.Tag != congest.TagDom || p.Bits != congest.MsgTagBits || p.A != 0 || p.B != 0 {
		t.Fatalf("TagOnly malformed: %+v", p)
	}
}
