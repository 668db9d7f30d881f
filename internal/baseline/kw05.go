package baseline

import (
	"fmt"
	"math"

	"arbods/internal/congest"
	"arbods/internal/graph"
	"arbods/internal/mds"
)

// kwProc implements the Kuhn–Wattenhofer '05-style O(k²)-round fractional
// dominating set algorithm with randomized rounding — the general-graph
// algorithm that Theorem 1.3 improves by removing the log Δ factor its
// rounding pays:
//
//	for l = k−1 … 0:            (degree-threshold sweep)
//	  for m = k−1 … 0:          (value sweep)
//	    every node whose span (fractionally uncovered closed neighbors)
//	    is ≥ (Δ+1)^{l/k} raises x_v to (Δ+1)^{-m/k}
//
// The fractional solution is feasible by construction (the final pass has
// threshold 1 and value 1). Rounding: v joins with probability
// min(1, x_v·ln(Δ+1)); nodes left uncovered join themselves — this is
// where the extra log Δ enters the KW05 bound.
//
// Each (l, m) iteration costs two rounds (value announcements, coverage
// announcements), for 2k² + O(1) rounds total. Unweighted graphs only.
type kwProc struct {
	ni    congest.NodeInfo
	k     int
	delta int // Δ, known to every node

	x        float64
	mIdx     int // smallest m announced so far (-1 = none)
	nbrX     []float64
	nbrFCov  []bool
	fCovered bool
	fCovSent bool

	inDS      bool
	dominated bool

	l, m  int
	stage int // 0 = decide+announce x, 1 = coverage update; 2..4 rounding
}

var _ congest.Proc[mds.Output] = (*kwProc)(nil)

func (p *kwProc) value(m int) float64 {
	return math.Pow(float64(p.delta+1), -float64(m)/float64(p.k))
}

func (p *kwProc) threshold(l int) float64 {
	return math.Pow(float64(p.delta+1), float64(l)/float64(p.k))
}

// span counts fractionally uncovered nodes in the closed neighborhood.
func (p *kwProc) span() int {
	s := 0
	if !p.fCovered {
		s = 1
	}
	for _, c := range p.nbrFCov {
		if !c {
			s++
		}
	}
	return s
}

// fracSum returns Σ_{u∈N+(v)} x_u.
func (p *kwProc) fracSum() float64 {
	sum := p.x
	for _, xv := range p.nbrX {
		sum += xv
	}
	return sum
}

func (p *kwProc) absorb(in []congest.Incoming) {
	for _, msg := range in {
		i := msg.Idx
		switch msg.P.Tag {
		case congest.TagFracX:
			if v := p.value(int(fracXFields(msg.P))); v > p.nbrX[i] {
				p.nbrX[i] = v
			}
		case congest.TagFracCovered:
			p.nbrFCov[i] = true
		case congest.TagJoin:
			p.nbrFCov[i] = true
			p.dominated = true
		}
	}
}

func (p *kwProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	p.absorb(in)
	switch p.stage {
	case 0: // decide whether to raise x, announce the raise
		if float64(p.span()) >= p.threshold(p.l) {
			if v := p.value(p.m); v > p.x {
				p.x = v
				p.mIdx = p.m
				s.Broadcast(packFracX(int32(p.m)))
			}
		}
		p.stage = 1
		return false

	case 1: // coverage update
		if !p.fCovered && p.fracSum() >= 1-1e-12 {
			p.fCovered = true
		}
		if p.fCovered && !p.fCovSent {
			p.fCovSent = true
			s.Broadcast(packFracCovered())
		}
		// Advance the (l, m) sweep.
		p.m--
		if p.m < 0 {
			p.m = p.k - 1
			p.l--
		}
		if p.l < 0 {
			p.stage = 2
		} else {
			p.stage = 0
		}
		return false

	case 2: // randomized rounding
		prob := math.Min(1, p.x*math.Log(float64(p.delta+1)))
		if p.ni.Rand.Bernoulli(prob) {
			p.inDS = true
			p.dominated = true
			s.Broadcast(packJoin())
		}
		p.stage = 3
		return false

	default: // fix-up: uncovered nodes join themselves
		if !p.dominated {
			p.inDS = true
			p.dominated = true
		}
		return true
	}
}

func (p *kwProc) Output() mds.Output {
	return mds.Output{InDS: p.inDS, InExtension: p.inDS, Dominated: p.dominated, Packing: 0}
}

// KW05 runs the Kuhn–Wattenhofer-style O(k²)-round algorithm with expected
// approximation O(kΔ^{2/k}·log Δ) — the baseline Theorem 1.3 improves.
// It also returns the fractional solution's value Σx (the LP-feasible
// intermediate). Unweighted graphs only.
func KW05(g *graph.Graph, k int, opts ...congest.Option) (*mds.Report, float64, error) {
	if !g.Unweighted() {
		return nil, 0, fmt.Errorf("baseline: KW05 requires unit weights")
	}
	if k < 1 {
		return nil, 0, fmt.Errorf("baseline: k must be ≥ 1, got %d", k)
	}
	slab := make([]kwProc, g.N())
	factory := func(ni congest.NodeInfo) congest.Proc[mds.Output] {
		p := &slab[ni.ID]
		*p = kwProc{
			ni:      ni,
			k:       k,
			delta:   g.MaxDegree(),
			nbrX:    ni.Arena.Float64s(ni.Degree()),
			nbrFCov: ni.Arena.Bools(ni.Degree()),
			mIdx:    -1,
			l:       k - 1,
			m:       k - 1,
		}
		return p
	}
	res, err := congest.Run(g, factory, opts...)
	if err != nil {
		return nil, 0, err
	}
	// The run has completed, so reading the procs' fractional values is
	// race-free (the factory runs before round 0; the engine joins all its
	// workers before returning).
	var fracTotal float64
	for i := range slab {
		fracTotal += slab[i].x
	}
	rep := mds.NewReport("kw05", res, g)
	return rep, fracTotal, nil
}
