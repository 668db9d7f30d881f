package mds

import (
	"arbods/internal/congest"
	"arbods/internal/graph"
)

// udProc implements Remark 4.4: the Theorem 1.1 algorithm when Δ is not
// globally known.
//
// Differences from the known-Δ algorithm:
//
//   - the packing value of v is initialized to τ_v / max_{u∈N+(v)}|N+(u)|
//     (each node learns its neighbors' degrees in one round), which keeps
//     the initial packing feasible without knowing Δ;
//   - every iteration begins with an extra completion step: an undominated
//     node whose packing value strictly exceeds λτ_v immediately pulls its
//     τ-neighbor into the final dominating set (simulating the completion
//     phase, which it cannot schedule because the number of iterations is
//     not locally computable);
//   - termination is local: a node halts once it is dominated, has
//     announced it, and knows all closed neighbors are dominated.
//
// Each iteration costs three rounds (requests+threshold joins / request
// service / domination announcements+packing raises); all nodes are
// dominated after O(log Δ/ε) iterations.
type udProc struct {
	ni     congest.NodeInfo
	eps    float64
	lambda float64
	// fixedNorm, when positive, overrides the max_{u∈N+(v)}|N+(u)| packing
	// normalizer (Remark 4.5 initializes with τ_v/(n+1) instead).
	fixedNorm int
	pow       *powTable // (1+ε)^k, shared by the run's procs

	nbrX   []float64
	nbrW   []int64
	nbrDom []bool

	tau    int64
	argmin int
	norm   int // max_{u∈N+(v)} |N+(u)|

	x   float64
	exp int

	inS, inSP, dom bool
	requested      bool
	domAnnounced   bool

	st int // 0=init 1=setup 2=A 3=B 4=C
}

var _ congest.Proc[Output] = (*udProc)(nil)

// init constructs the proc in place, carving the neighbor caches from the
// run's arena. fixedNorm > 0 selects the Remark 4.5 τ_v/(n+1) packing
// normalizer; lambda may be filled in later (the unknown-α variant learns
// it from the orientation phase).
func (p *udProc) init(ni congest.NodeInfo, eps, lambda float64, fixedNorm int, pow *powTable) {
	deg := ni.Degree()
	*p = udProc{
		ni:        ni,
		eps:       eps,
		lambda:    lambda,
		fixedNorm: fixedNorm,
		pow:       pow,
		nbrX:      ni.Arena.Float64s(deg),
		nbrW:      ni.Arena.Int64s(deg),
		nbrDom:    ni.Arena.Bools(deg),
	}
}

// udPowTable sizes the (1+ε)^k table for an n-node run. A node raises its
// exponent only while x = τ(1+ε)^exp/norm ≤ λτ, with λ < 1 and
// norm ≤ n+1, so exponents stay below the Lemma 4.1 count for λ = 1 and
// Δ = n, plus the one raise that crosses the threshold.
func udPowTable(eps float64, n int) *powTable {
	return newPowTable(1+eps, partialIterations(eps, 1, n)+2)
}

func (p *udProc) absorb(in []congest.Incoming) {
	for _, m := range in {
		i := m.Idx
		switch m.P.Tag {
		case congest.TagWeight:
			w, deg := weightFields(m.P)
			p.nbrW[i] = w
			if d := int(deg) + 1; d > p.norm {
				p.norm = d
			}
		case congest.TagPacking:
			tau, exp, norm := packingFields(m.P)
			p.nbrX[i] = float64(tau) * p.pow.at(exp) / float64(norm)
		case congest.TagJoin:
			p.nbrDom[i] = true
			p.dom = true
		case congest.TagDom:
			p.nbrDom[i] = true
		case congest.TagRequest:
			p.requested = true
		}
	}
}

func (p *udProc) bigX() float64 {
	sum := p.x
	for _, xv := range p.nbrX {
		sum += xv
	}
	return sum
}

func (p *udProc) allNeighborsDominated() bool {
	for _, d := range p.nbrDom {
		if !d {
			return false
		}
	}
	return true
}

func (p *udProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	switch p.st {
	case 0:
		s.Broadcast(packWeight(p.ni.Weight, int32(p.ni.Degree())))
		p.norm = p.ni.Degree() + 1
		p.st = 1
		return false

	case 1:
		p.absorb(in)
		p.tau, p.argmin = p.ni.Weight, p.ni.ID
		for i, u := range p.ni.Neighbors {
			if w := p.nbrW[i]; w < p.tau || (w == p.tau && int(u) < p.argmin) {
				p.tau, p.argmin = w, int(u)
			}
		}
		if p.fixedNorm > 0 {
			p.norm = p.fixedNorm
		}
		p.x = float64(p.tau) / float64(p.norm)
		s.Broadcast(packPacking(p.tau, 0, int32(p.norm)))
		p.st = 2
		return false

	case 2: // stage A: completion step, then threshold joins
		p.absorb(in)
		if !p.dom && p.x > p.lambda*float64(p.tau)*(1+1e-12) {
			if p.argmin == p.ni.ID {
				p.inSP = true
			} else {
				s.Send(p.argmin, packRequest())
			}
			p.dom = true // the τ-neighbor joins next round
		}
		if !p.inS && p.bigX() >= float64(p.ni.Weight)/(1+p.eps) {
			p.inS = true
			p.dom = true
			p.domAnnounced = true
			s.Broadcast(packJoin())
		}
		p.st = 3
		return false

	case 3: // stage B: serve requests
		p.absorb(in)
		if p.requested && !p.inS && !p.inSP {
			p.inSP = true
			p.dom = true
			p.domAnnounced = true
			s.Broadcast(packJoin())
		}
		p.st = 4
		return false

	default: // stage C: announce domination, raise packing, check exit
		p.absorb(in)
		if p.dom && !p.domAnnounced {
			p.domAnnounced = true
			s.Broadcast(packDom())
		}
		if !p.dom {
			p.exp++
			p.x *= 1 + p.eps
			s.Broadcast(packPacking(p.tau, int32(p.exp), int32(p.norm)))
		}
		if p.dom && p.domAnnounced && p.allNeighborsDominated() {
			return true
		}
		p.st = 2
		return false
	}
}

func (p *udProc) Output() Output {
	return Output{
		InDS:        p.inS || p.inSP,
		InPartial:   p.inS,
		InExtension: p.inSP,
		Dominated:   p.dom,
		Packing:     p.x,
		Tau:         p.tau,
	}
}

// UnknownDelta runs the Remark 4.4 variant of Theorem 1.1: same asymptotic
// guarantees without global knowledge of Δ. The certified per-run factor is
// slightly looser than (2α+1)(1+ε) because a node's packing can overshoot
// λτ_v by one (1+ε) factor before the completion step catches it, and a
// completion-triggered node may later also be dominated by S; the reported
// Factor accounts for both (see the derivation in the code).
func UnknownDelta(g *graph.Graph, alpha int, eps float64, opts ...congest.Option) (*Report, error) {
	if err := validateEps(eps); err != nil {
		return nil, err
	}
	if err := validateAlpha(alpha); err != nil {
		return nil, err
	}
	lambda := 1 / (float64(2*alpha+1) * (1 + eps))
	pow := udPowTable(eps, g.N())
	slab := make([]udProc, g.N())
	factory := func(ni congest.NodeInfo) congest.Proc[Output] {
		p := &slab[ni.ID]
		p.init(ni, eps, lambda, 0, pow)
		return p
	}
	res, err := congest.Run(g, factory, opts...)
	if err != nil {
		return nil, err
	}
	rep := buildReport("unknown-delta", res, g)
	rep.Eps, rep.Lambda, rep.Alpha = eps, lambda, alpha
	// Certified factor: w(S) ≤ A·Σ_{N+(S)} x with
	// A = α(1/(1+ε) − λ(1+ε)(α+1))⁻¹ (frozen packing values are capped by
	// λτ(1+ε) rather than λτ), plus w(S′) ≤ λ⁻¹·Σ_T x; the two node sets
	// can overlap, so the safe combined certificate is A + 1/λ.
	denom := 1/(1+eps) - lambda*(1+eps)*float64(alpha+1)
	if denom > 0 {
		rep.Factor = float64(alpha)/denom + 1/lambda
	}
	return rep, nil
}
