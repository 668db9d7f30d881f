package congest

import (
	"reflect"
	"testing"

	"arbods/internal/gen"
	"arbods/internal/graph"
)

// mixTag is the test-only tag of mixProc's packets.
const mixTag Tag = MaxTags - 2

// mixPacket carries (round, per-node send index) so any reordering of a
// receiver's inbox changes the receiver's output.
func mixPacket(round, seq int) Packet {
	return Packet{Tag: mixTag, Bits: 24, A: uint64(round)<<32 | uint64(seq)}
}

// mixOut is what a mixProc node reports: an order-sensitive fold of every
// delivery (sender, position, payload) and a count of deliveries whose Idx
// did not point back at their sender.
type mixOut struct {
	Hash   uint64
	BadIdx int
}

// fold records an inbox into the hash, counting deliveries whose Idx does
// not point back at their sender in nb, the receiver's neighbor list.
func (o *mixOut) fold(nb []int32, in []Incoming) {
	for _, m := range in {
		if int(m.Idx) >= len(nb) || nb[m.Idx] != m.From {
			o.BadIdx++
		}
		o.Hash = (o.Hash ^ uint64(m.From)<<40 ^ m.P.A) * 1099511628211
	}
}

// mixProc interleaves targeted sends with broadcasts: every round it walks
// its neighbors in descending order (so the step phase has to regroup its
// targeted sends by receiver), sending to a random subset, sometimes twice
// on one edge, with broadcasts in between. Node v stops after 1+v%3
// rounds, so later traffic lands on terminated receivers.
type mixProc struct {
	ni     NodeInfo
	rounds int
	out    mixOut
}

func (p *mixProc) Step(round int, in []Incoming, s *Sender) bool {
	p.out.fold(p.ni.Neighbors, in)
	if round >= p.rounds {
		return true
	}
	nb := p.ni.Neighbors
	seq := 0
	send := func(to int) {
		s.Send(to, mixPacket(round, seq))
		seq++
	}
	for k := len(nb) - 1; k >= 0; k -= 1 + p.ni.Rand.Intn(3) {
		send(int(nb[k]))
		if p.ni.Rand.Bernoulli(0.3) {
			s.Broadcast(mixPacket(round, seq))
			seq++
		}
		if p.ni.Rand.Bernoulli(0.2) {
			send(int(nb[k]))
		}
	}
	s.Broadcast(mixPacket(round, seq))
	return false
}

func (p *mixProc) Output() mixOut { return p.out }

func runMix(g *graph.Graph, opts ...Option) (*Result[mixOut], error) {
	slab := make([]mixProc, g.N())
	return Run(g, func(ni NodeInfo) Proc[mixOut] {
		p := &slab[ni.ID]
		*p = mixProc{ni: ni, rounds: 1 + ni.ID%3}
		return p
	}, opts...)
}

// tailProc isolates the accounting corners of a 64-bit budget. Every
// round each node broadcasts a 24-bit packet and, from even nodes, sends
// a 48-bit packet to its highest neighbor, so only that targeted edge
// crosses the budget (broadcasts ≤ budget < broadcasts + group), and a
// node's lowest violating receiver is not its Neighbors[0] unless it has
// a single neighbor. Node v terminates in round (v+1)%3 and still sends
// in that round, so its last words land on neighbors that are already
// done, and in the last round on no live receiver at all.
type tailProc struct {
	ni  NodeInfo
	out mixOut
}

func (p *tailProc) Step(round int, in []Incoming, s *Sender) bool {
	p.out.fold(p.ni.Neighbors, in)
	s.Broadcast(mixPacket(round, 0))
	if nb := p.ni.Neighbors; p.ni.ID%2 == 0 && len(nb) > 0 {
		s.Send(int(nb[len(nb)-1]), Packet{Tag: mixTag, Bits: 48, A: uint64(round)<<32 | 1})
	}
	return round >= (p.ni.ID+1)%3
}

func (p *tailProc) Output() mixOut { return p.out }

func runTail(g *graph.Graph, opts ...Option) (*Result[mixOut], error) {
	slab := make([]tailProc, g.N())
	return Run(g, func(ni NodeInfo) Proc[mixOut] {
		p := &slab[ni.ID]
		*p = tailProc{ni: ni}
		return p
	}, opts...)
}

// TestTargetedSendOrder pins the delivery order of a mixed outbox on a
// hand-checked case: the hub sends to leaf 2, broadcasts, sends to leaf 1,
// sends to leaf 2 again and broadcasts once more. Every leaf must see its
// own targeted sends interleaved with both broadcasts in send order.
func TestTargetedSendOrder(t *testing.T) {
	g := buildStar(t, 4)
	res, err := Run(g, func(ni NodeInfo) Proc[[]uint64] {
		return &scriptProc{id: ni.ID}
	}, WithMode(Local))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]uint64{nil, {1, 2, 4}, {0, 1, 3, 4}, {1, 4}}
	for v, got := range res.Outputs {
		if !reflect.DeepEqual(got, want[v]) {
			t.Errorf("node %d received %v, want %v", v, got, want[v])
		}
	}
}

// scriptProc: node 0 sends a fixed mixed script in round 0; every node
// records the payloads it receives in round 1.
type scriptProc struct {
	id  int
	got []uint64
}

func (p *scriptProc) Step(round int, in []Incoming, s *Sender) bool {
	for _, m := range in {
		p.got = append(p.got, m.P.A)
	}
	if round == 0 && p.id == 0 {
		s.Send(2, mixPacket(0, 0))
		s.Broadcast(mixPacket(0, 1))
		s.Send(1, mixPacket(0, 2))
		s.Send(2, mixPacket(0, 3))
		s.Broadcast(mixPacket(0, 4))
	}
	return round == 1
}

func (p *scriptProc) Output() []uint64 { return p.got }

// mixDigest condenses an audit run of mixProc: the traffic totals plus an
// order-sensitive fold of every node's delivery hash.
type mixDigest struct {
	Messages, TotalBits, Violations, Dropped int64
	MaxEdgeBits                              int
	Hash                                     uint64
}

func digestMix(res *Result[mixOut]) mixDigest {
	d := mixDigest{Messages: res.Messages, TotalBits: res.TotalBits, Violations: res.BandwidthViolations,
		Dropped: res.DroppedMessages, MaxEdgeBits: res.MaxEdgeBits}
	for _, o := range res.Outputs {
		d.Hash = (d.Hash ^ o.Hash) * 1099511628211
	}
	return d
}

// TestTargetedSendWorkerInvariance pins mixed broadcast/targeted traffic
// — several messages per edge per round, terminated receivers, and both
// budget modes — across worker counts: the full audit Result and the
// strict-mode abort must be identical at every layout. The mix digests
// were recorded from the push router, which expanded every broadcast into
// per-neighbor outbox entries; the tail digests (tailProc: edges where
// only the targeted group crosses the budget, and last words sent to
// terminated receivers) from the route-phase pull router, which accounted
// bandwidth and drops on the receiving side. Both pin the step-phase pull
// to the same inbox order and accounting.
func TestTargetedSendWorkerInvariance(t *testing.T) {
	broom, star, cycle := buildBroom(t, 200, 300), buildStar(t, 400), buildCycle(t, 300)
	for _, c := range []struct {
		name   string
		g      *graph.Graph
		run    func(*graph.Graph, ...Option) (*Result[mixOut], error)
		golden mixDigest
	}{
		{"mix/broom", broom, runMix, mixDigest{Messages: 31918, TotalBits: 766032, Violations: 1173, Dropped: 5446, MaxEdgeBits: 1224, Hash: 0x91ee6baf2dcd1887}},
		{"mix/star", star, runMix, mixDigest{Messages: 23406, TotalBits: 561744, Violations: 773, Dropped: 1014, MaxEdgeBits: 1320, Hash: 0xa8d50af54fa6efe8}},
		{"mix/cycle", cycle, runMix, mixDigest{Messages: 2627, TotalBits: 63048, Violations: 414, Dropped: 894, MaxEdgeBits: 120, Hash: 0x7f41604e31347c35}},
		{"tail/broom", broom, runTail, mixDigest{Messages: 2797, TotalBits: 79128, Violations: 500, Dropped: 1313, MaxEdgeBits: 72, Hash: 0xe1ef9b3e2372da5f}},
		{"tail/star", star, runTail, mixDigest{Messages: 1995, TotalBits: 57456, Violations: 399, Dropped: 997, MaxEdgeBits: 72, Hash: 0x70aed51faff33f96}},
		{"tail/cycle", cycle, runTail, mixDigest{Messages: 1500, TotalBits: 43200, Violations: 300, Dropped: 852, MaxEdgeBits: 72, Hash: 0x39cdd23b2b024c32}},
	} {
		name, g := c.name, c.g
		var want *Result[mixOut]
		var wantErr *BandwidthError
		for _, w := range []int{1, 2, 3, 7} {
			res, err := c.run(g, WithSeed(3), WithWorkers(w), WithBandwidth(64),
				WithMode(CongestAudit), WithRoundStats(), WithMessageStats())
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			for v, o := range res.Outputs {
				if o.BadIdx != 0 {
					t.Fatalf("%s workers=%d: node %d got %d deliveries with a wrong Idx", name, w, v, o.BadIdx)
				}
			}
			if res.BandwidthViolations == 0 || res.DroppedMessages == 0 {
				t.Fatalf("%s: violations=%d dropped=%d — the scenario lost its teeth",
					name, res.BandwidthViolations, res.DroppedMessages)
			}
			_, err = c.run(g, WithSeed(3), WithWorkers(w), WithBandwidth(64))
			be, ok := err.(*BandwidthError)
			if !ok {
				t.Fatalf("%s workers=%d strict: got %v, want a *BandwidthError", name, w, err)
			}
			if want == nil {
				if d := digestMix(res); d != c.golden {
					t.Errorf("%s: digest %#v, want %#v", name, d, c.golden)
				}
				want, wantErr = res, be
				continue
			}
			if !reflect.DeepEqual(res, want) {
				t.Errorf("%s workers=%d: audit result diverges from workers=1", name, w)
			}
			if !reflect.DeepEqual(be, wantErr) {
				t.Errorf("%s workers=%d: strict error %+v differs from workers=1's %+v", name, w, be, wantErr)
			}
		}
	}
}

// sparseProc drives the light rounds: in even rounds every live node
// broadcasts (a dense round), in odd rounds only a hashed 1/32 of the live
// nodes speak (a sparse round on every test graph but a star whose hub
// speaks), so the round after each odd one walks only at marked nodes, on
// the node-count layout. A speaker sends one of four outboxes — a lone
// broadcast, a lone targeted send, targeted sends to one receiver
// interleaved with a broadcast, or targeted sends only — chosen by a hash
// of its inbox so far, so a lost or extra delivery changes later traffic
// too. From round 5 the interleaved outbox puts four packets on one edge,
// over a 72-bit budget. Node v stops in round 4+2·(v%4) after one last
// broadcast, so last words, and odd-round sends, reach terminated
// receivers.
type sparseProc struct {
	ni  NodeInfo
	out mixOut
}

func (p *sparseProc) Step(round int, in []Incoming, s *Sender) bool {
	p.out.fold(p.ni.Neighbors, in)
	nb := p.ni.Neighbors
	if round%2 == 0 {
		s.Broadcast(mixPacket(round, 0))
		return round >= 4+2*(p.ni.ID%4)
	}
	h := p.out.Hash ^ uint64(p.ni.ID)<<32 ^ uint64(round)
	h = (h ^ h>>30) * 0xBF58476D1CE4E5B9
	h = (h ^ h>>27) * 0x94D049BB133111EB
	h ^= h >> 31
	if h>>59 != 0 || len(nb) == 0 {
		return false
	}
	u, u2 := int(nb[h%uint64(len(nb))]), int(nb[(h>>20)%uint64(len(nb))])
	switch (h >> 40) % 4 {
	case 0:
		s.Broadcast(mixPacket(round, 0))
	case 1:
		s.Send(u, mixPacket(round, 0))
	case 2:
		s.Send(u, mixPacket(round, 0))
		s.Broadcast(mixPacket(round, 1))
		s.Send(u, mixPacket(round, 2))
		if round >= 5 {
			s.Send(u, mixPacket(round, 3))
		}
	default:
		s.Send(u2, mixPacket(round, 0))
		s.Send(u, mixPacket(round, 1))
		s.Send(u2, mixPacket(round, 2))
	}
	return false
}

func (p *sparseProc) Output() mixOut { return p.out }

func runSparse(g *graph.Graph, opts ...Option) (*Result[mixOut], error) {
	slab := make([]sparseProc, g.N())
	return Run(g, func(ni NodeInfo) Proc[mixOut] {
		p := &slab[ni.ID]
		*p = sparseProc{ni: ni}
		return p
	}, opts...)
}

// TestSparseRoundWorkerInvariance pins the light-round path — pulls only
// at the receivers marked after a sparse round, on the node-count layout,
// alternating with full walks on the degree-weighted layout — across
// worker counts: the audit Result and the strict-mode abort must be
// identical at every layout, and equal to digests recorded from the engine
// in which every node walked after every round with traffic. The strict
// abort comes in round 5, after two light rounds whose deliveries chose
// round 5's speakers.
func TestSparseRoundWorkerInvariance(t *testing.T) {
	ba := gen.BarabasiAlbert(2000, 3, 7).G
	for _, c := range []struct {
		name   string
		g      *graph.Graph
		golden mixDigest
		strict BandwidthError
	}{
		{"broom", buildBroom(t, 200, 300), mixDigest{Messages: 5068, TotalBits: 121632, Violations: 5, Dropped: 1339, MaxEdgeBits: 96, Hash: 0x9d09dccf6ea18f2c},
			BandwidthError{Round: 5, From: 117, To: 116, Bits: 96, Budget: 72}},
		{"star", buildStar(t, 400), mixDigest{Messages: 3074, TotalBits: 73776, Violations: 8, Dropped: 1144, MaxEdgeBits: 96, Hash: 0x8cc6b54557a077f0},
			BandwidthError{Round: 5, From: 115, To: 0, Bits: 96, Budget: 72}},
		{"cycle", buildCycle(t, 300), mixDigest{Messages: 2781, TotalBits: 66744, Violations: 4, Dropped: 768, MaxEdgeBits: 96, Hash: 0x91545290800ef91c},
			BandwidthError{Round: 5, From: 117, To: 116, Bits: 96, Budget: 72}},
		{"ba", ba, mixDigest{Messages: 54974, TotalBits: 1319376, Violations: 20, Dropped: 15173, MaxEdgeBits: 96, Hash: 0x2f329064e65bd170},
			BandwidthError{Round: 5, From: 65, To: 32, Bits: 96, Budget: 72}},
	} {
		name, g := c.name, c.g
		var want *Result[mixOut]
		for _, w := range []int{1, 2, 3, 7} {
			res, err := runSparse(g, WithSeed(3), WithWorkers(w), WithBandwidth(72),
				WithMode(CongestAudit), WithRoundStats(), WithMessageStats())
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			for v, o := range res.Outputs {
				if o.BadIdx != 0 {
					t.Fatalf("%s workers=%d: node %d got %d deliveries with a wrong Idx", name, w, v, o.BadIdx)
				}
			}
			_, err = runSparse(g, WithSeed(3), WithWorkers(w), WithBandwidth(72))
			be, ok := err.(*BandwidthError)
			if !ok {
				t.Fatalf("%s workers=%d strict: got %v, want a *BandwidthError", name, w, err)
			}
			if *be != c.strict {
				t.Errorf("%s workers=%d: strict error %#v, want %#v", name, w, *be, c.strict)
			}
			if want != nil {
				if !reflect.DeepEqual(res, want) {
					t.Errorf("%s workers=%d: audit result diverges from workers=1", name, w)
				}
				continue
			}
			want = res
			if d := digestMix(res); d != c.golden {
				t.Errorf("%s: digest %#v, want %#v", name, d, c.golden)
			}
			// Teeth: marked pulls must run in several light rounds, full
			// walks in several dense ones, and messages must be dropped.
			var light, dense int
			for _, st := range res.RoundStats[:len(res.RoundStats)-1] {
				switch {
				case st.Messages*sparseRatio > int64(g.DegreeSum()):
					dense++
				case st.Messages > 0:
					light++
				}
			}
			if light < 3 || dense < 3 || res.DroppedMessages == 0 || res.BandwidthViolations == 0 {
				t.Fatalf("%s: %d light and %d dense rounds with traffic, %d dropped, %d violations — the scenario lost its teeth",
					name, light, dense, res.DroppedMessages, res.BandwidthViolations)
			}
		}
	}
}

// TestSparseRoundRunnerReuse runs sparseProc and a dense mixProc in turn on
// one Runner: every run must equal a fresh-Runner run, so neither marks
// nor outboxes left by the previous run may reach its round 0 or a light
// round.
func TestSparseRoundRunnerReuse(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, 7).G
	for _, w := range []int{1, 3} {
		opts := []Option{WithSeed(3), WithWorkers(w), WithMode(CongestAudit), WithRoundStats()}
		freshMix, err := runMix(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		freshSparse, err := runSparse(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner()
		reused := append(opts, WithRunner(r))
		for i := 0; i < 2; i++ {
			mix, err := runMix(g, reused...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(mix, freshMix) {
				t.Errorf("workers=%d pass %d: mixProc on a reused Runner diverges from a fresh one", w, i)
			}
			sparse, err := runSparse(g, reused...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sparse, freshSparse) {
				t.Errorf("workers=%d pass %d: sparseProc after mixProc on a reused Runner diverges from a fresh one", w, i)
			}
		}
		r.Close()
	}
}
