package baseline

import (
	"fmt"

	"arbods/internal/congest"
	"arbods/internal/graph"
	"arbods/internal/mds"
)

// lwProc implements the Lenzen–Wattenhofer-style deterministic bucket
// greedy for unweighted MDS: for thresholds θ = 2^i, i = ⌈log₂(Δ+1)⌉ down
// to 0, every node whose span (number of uncovered nodes in its closed
// neighborhood) is at least θ joins the set. After phase θ every node has
// span < θ, so after the θ = 1 phase all nodes are covered. O(log Δ)
// phases of two rounds each; on arboricity-α graphs the set is an
// O(α·log Δ)-approximation [LW10].
type lwProc struct {
	ni congest.NodeInfo

	inDS    bool
	covered bool
	nbrCov  []bool

	phase  int  // current exponent i, counts down
	inJoin bool // true in the join half-round, false in the update half
}

var _ congest.Proc[mds.Output] = (*lwProc)(nil)

func (p *lwProc) span() int {
	s := 0
	if !p.covered {
		s = 1
	}
	for _, c := range p.nbrCov {
		if !c {
			s++
		}
	}
	return s
}

func (p *lwProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	if p.inJoin {
		// Join half: absorb coverage updates from the previous phase, then
		// join if span ≥ 2^phase.
		for _, m := range in {
			if m.P.Tag == congest.TagCovered {
				p.nbrCov[m.Idx] = true
			}
		}
		if !p.inDS && p.span() >= 1<<uint(p.phase) {
			p.inDS = true
			p.covered = true // a member dominates itself; joinMsg tells neighbors
			s.Broadcast(packJoin())
		}
		p.inJoin = false
		return false
	}
	// Update half: absorb joins, announce new coverage.
	newlyCovered := false
	for _, m := range in {
		if m.P.Tag == congest.TagJoin {
			p.nbrCov[m.Idx] = true
			if !p.covered {
				p.covered = true
				newlyCovered = true
			}
		}
	}
	if newlyCovered {
		s.Broadcast(packCovered())
	}
	p.inJoin = true
	p.phase--
	return p.phase < 0
}

func (p *lwProc) Output() mds.Output {
	return mds.Output{InDS: p.inDS, InExtension: p.inDS, Dominated: p.covered}
}

// LWDeterministic runs the bucket greedy. Unweighted graphs only.
func LWDeterministic(g *graph.Graph, opts ...congest.Option) (*mds.Report, error) {
	if !g.Unweighted() {
		return nil, fmt.Errorf("baseline: LWDeterministic requires unit weights")
	}
	phases := 0
	for 1<<uint(phases) < g.MaxDegree()+1 {
		phases++
	}
	slab := make([]lwProc, g.N())
	factory := func(ni congest.NodeInfo) congest.Proc[mds.Output] {
		p := &slab[ni.ID]
		*p = lwProc{
			ni:     ni,
			nbrCov: ni.Arena.Bools(ni.Degree()),
			phase:  phases,
			inJoin: true,
		}
		return p
	}
	res, err := congest.Run(g, factory, opts...)
	if err != nil {
		return nil, err
	}
	return mds.NewReport("lw-bucket-deterministic", res, g), nil
}
