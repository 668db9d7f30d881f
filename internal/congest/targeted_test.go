package congest

import (
	"reflect"
	"testing"

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
	for _, m := range in {
		if int(m.Idx) >= len(p.ni.Neighbors) || p.ni.Neighbors[m.Idx] != m.From {
			p.out.BadIdx++
		}
		p.out.Hash = (p.out.Hash ^ uint64(m.From)<<40 ^ m.P.A) * 1099511628211
	}
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
// strict-mode abort must be identical at every layout. The audit digests
// were recorded from the earlier push router, which expanded every
// broadcast into per-neighbor outbox entries, so they also pin pull
// delivery to the same inbox order and accounting.
func TestTargetedSendWorkerInvariance(t *testing.T) {
	golden := map[string]mixDigest{
		"broom": {Messages: 31918, TotalBits: 766032, Violations: 1173, Dropped: 5446, MaxEdgeBits: 1224, Hash: 0x91ee6baf2dcd1887},
		"star":  {Messages: 23406, TotalBits: 561744, Violations: 773, Dropped: 1014, MaxEdgeBits: 1320, Hash: 0xa8d50af54fa6efe8},
		"cycle": {Messages: 2627, TotalBits: 63048, Violations: 414, Dropped: 894, MaxEdgeBits: 120, Hash: 0x7f41604e31347c35},
	}
	for name, g := range map[string]*graph.Graph{
		"broom": buildBroom(t, 200, 300),
		"star":  buildStar(t, 400),
		"cycle": buildCycle(t, 300),
	} {
		var want *Result[mixOut]
		var wantErr *BandwidthError
		for _, w := range []int{1, 2, 3, 7} {
			res, err := runMix(g, WithSeed(3), WithWorkers(w), WithBandwidth(64),
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
			_, err = runMix(g, WithSeed(3), WithWorkers(w), WithBandwidth(64))
			be, ok := err.(*BandwidthError)
			if !ok {
				t.Fatalf("%s workers=%d strict: got %v, want a *BandwidthError", name, w, err)
			}
			if want == nil {
				if d := digestMix(res); d != golden[name] {
					t.Errorf("%s: digest %+v, want %+v", name, d, golden[name])
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
