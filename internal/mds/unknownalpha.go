package mds

import (
	"arbods/internal/congest"
	"arbods/internal/graph"
	"arbods/internal/orient"
)

// uaProc implements Remark 4.5: the dominating set algorithm when the
// arboricity is not known. It composes three stages:
//
//  1. the Barenboim–Elkin-style H-partition orientation with doubling
//     estimates (internal/orient), giving each node an out-degree at most
//     (2+ε)·2α on a fixed, globally known schedule;
//  2. one round in which every node announces its out-degree, from which
//     each node v computes its local arboricity estimate
//     α̂_v = max_{u∈N+(v)} outdeg(u) and the threshold λ_v = 1/((2α̂_v+1)(1+ε));
//  3. the Remark 4.4 iteration loop (udProc) with the per-node λ_v and
//     packing values initialized to τ_v/(n+1), running to local quiescence.
//
// uaProc embeds its two phase procs by value, so it holds two NodeInfo
// copies and with them two identically-seeded value copies of the node's
// random stream. Neither phase draws randomness today; if one ever does,
// it must be the only one (see the NodeInfo.Rand fork caveat).
type uaProc struct {
	orient orient.Proc
	ud     udProc
	eps    float64

	alphaHat int
	st       int // 0 orienting; 1 announce out-degree; 2 compute α̂ + start; 3 delegate
}

var _ congest.Proc[Output] = (*uaProc)(nil)

func (p *uaProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	switch p.st {
	case 0:
		if p.orient.Step(in, s) {
			p.st = 1
		}
		return false
	case 1:
		// Final-round peel announcements are still in flight; absorb them
		// before computing the out-degree.
		p.orient.Absorb(in)
		s.Broadcast(packDegree(int32(p.orient.OutDegree())))
		p.st = 2
		return false
	case 2:
		p.alphaHat = p.orient.OutDegree()
		for _, m := range in {
			if m.P.Tag == congest.TagDegree {
				if d := int(degreeFields(m.P)); d > p.alphaHat {
					p.alphaHat = d
				}
			}
		}
		if p.alphaHat < 1 {
			p.alphaHat = 1
		}
		p.ud.lambda = 1 / (float64(2*p.alphaHat+1) * (1 + p.eps))
		p.st = 3
		// Kick off the inner loop's weight exchange in this same round.
		return p.ud.Step(round, nil, s)
	default:
		return p.ud.Step(round, in, s)
	}
}

func (p *uaProc) Output() Output { return p.ud.Output() }

// UnknownAlpha runs the Remark 4.5 variant: no global knowledge of α (or Δ);
// nodes know only n. The approximation factor is (2α̂+1)(2+O(ε))-flavoured
// where α̂ ≤ (2+ε)·2α is the local out-degree estimate. The orientation
// prefix runs every doubling estimate 1, 2, …, ≥ n on a fixed schedule, so
// it costs (⌈log₂ n⌉+1)·L = O(log² n/ε) rounds whatever α is, against the
// remark's O(log n/ε) sketch (the E8 table of EXPERIMENTS.md).
func UnknownAlpha(g *graph.Graph, eps float64, opts ...congest.Option) (*Report, error) {
	if err := validateEps(eps); err != nil {
		return nil, err
	}
	sched, err := orient.NewSchedule(g.N(), 0, eps)
	if err != nil {
		return nil, err
	}
	pow := udPowTable(eps, g.N())
	slab := make([]uaProc, g.N())
	factory := func(ni congest.NodeInfo) congest.Proc[Output] {
		p := &slab[ni.ID]
		p.eps = eps
		p.orient.Init(ni, sched, eps)
		// λ is learned from the orientation phase (stage 2 fills it in).
		p.ud.init(ni, eps, 0, ni.N+1, pow)
		return p
	}
	res, err := congest.Run(g, factory, opts...)
	if err != nil {
		return nil, err
	}
	rep := buildReport("unknown-alpha", res, g)
	rep.Eps = eps
	return rep, nil
}
