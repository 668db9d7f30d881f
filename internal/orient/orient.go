// Package orient implements the distributed low out-degree orientation the
// paper's Remark 4.5 borrows from Barenboim–Elkin [BE10]: an H-partition by
// iterated peeling of low-degree nodes, followed by orienting every edge
// from earlier-peeled to later-peeled endpoint.
//
// Partition (known arboricity bound a): for L = O(log n/ε) iterations, every
// still-active node whose active degree is at most (2+ε)·a peels itself and
// announces it. Because the remaining subgraph always has average degree
// ≤ 2a, at least an ε/(2+ε) fraction peels per iteration, so all nodes peel
// within L iterations. A node's out-neighbors — neighbors peeled strictly
// later, plus same-iteration neighbors with larger ID — were all still
// active when it peeled, so the out-degree is at most ⌈(2+ε)a⌉.
//
// Doubling (unknown α): run Partition phases with estimates a = 1, 2, 4, …
// Each phase peels everything once the estimate reaches the true arboricity,
// so every node peels in a phase with a ≤ 2α and ends with out-degree
// ≤ (2+ε)·2α, after O(log α · log n/ε) rounds (a log α factor and a
// constant-factor out-degree slack versus the remark's sketch; see
// DESIGN.md §5.2). The schedule is fixed from n alone so that all nodes
// agree on when the orientation phase ends — a requirement for composing it
// with the dominating set phase of Remark 4.5.
package orient

import (
	"fmt"
	"math"

	"arbods/internal/congest"
	"arbods/internal/graph"
)

// packPeel builds the peel announcement (congest.TagPeel): the sender
// peeled this iteration. Tag-only wire word.
func packPeel() congest.Packet { return congest.TagOnly(congest.TagPeel) }

// Output is the per-node result of the orientation.
type Output struct {
	// Layer is the global iteration index at which the node peeled.
	Layer int
	// Estimate is the arboricity estimate in force when the node peeled
	// (equals the known bound for Partition, a power of two for Doubling).
	Estimate int
	// Out lists the out-neighbors under the computed orientation.
	Out []int32
}

// Schedule fixes the peeling timetable so that every node knows when the
// orientation ends.
type Schedule struct {
	// IterationsPerPhase is L = ⌈log_{(2+ε)/2}(n)⌉ + 1.
	IterationsPerPhase int
	// Estimates holds the arboricity estimate of each phase.
	Estimates []int
}

// TotalRounds returns the number of rounds the schedule occupies.
func (s Schedule) TotalRounds() int { return s.IterationsPerPhase * len(s.Estimates) }

// threshold returns the peeling degree threshold ⌈(2+ε)·a⌉ of phase p.
func (s Schedule) threshold(p int, eps float64) int {
	return int(math.Ceil((2 + eps) * float64(s.Estimates[p])))
}

// NewSchedule builds the fixed schedule for an n-node graph. With a > 0 a
// single phase with the known bound is used; with a == 0 the doubling
// estimates 1, 2, 4, …, ≥ n are used.
func NewSchedule(n, a int, eps float64) (Schedule, error) {
	if n < 0 {
		return Schedule{}, fmt.Errorf("orient: negative n")
	}
	if !(eps > 0 && eps <= 2) {
		return Schedule{}, fmt.Errorf("orient: ε must be in (0,2], got %g", eps)
	}
	iters := 1
	if n > 1 {
		iters = int(math.Ceil(math.Log(float64(n))/math.Log((2+eps)/2))) + 1
	}
	s := Schedule{IterationsPerPhase: iters}
	if a > 0 {
		s.Estimates = []int{a}
		return s, nil
	}
	for est := 1; ; est *= 2 {
		s.Estimates = append(s.Estimates, est)
		if est >= n {
			break
		}
	}
	return s, nil
}

// Proc is the per-node peeling proc. It is exported so that composite
// algorithms (Remark 4.5) can embed it and take over after Done.
type Proc struct {
	NI       congest.NodeInfo
	Sched    Schedule
	Eps      float64
	nbrLayer []int // -1 while the neighbor is active
	activeD  int
	layer    int // -1 while active
	estimate int
	round    int
}

// Init initializes the peeling state in place (for procs embedded by value
// or constructed in a slab), carving the layer cache from the run's arena.
func (p *Proc) Init(ni congest.NodeInfo, sched Schedule, eps float64) {
	*p = Proc{
		NI:       ni,
		Sched:    sched,
		Eps:      eps,
		nbrLayer: ni.Arena.Ints(ni.Degree()),
		activeD:  ni.Degree(),
		layer:    -1,
		estimate: 0,
	}
	for i := range p.nbrLayer {
		p.nbrLayer[i] = -1
	}
}

// Absorb records peel announcements without advancing the schedule. After
// the final Step, one more round's inbox must be absorbed: peels announced
// in the last round are still in flight, and same-round ties are broken by
// ID only when both endpoints know each other's layer.
func (p *Proc) Absorb(in []congest.Incoming) {
	for _, m := range in {
		if m.P.Tag == congest.TagPeel {
			if i := m.Idx; p.nbrLayer[i] < 0 {
				p.nbrLayer[i] = p.round - 1
				p.activeD--
			}
		}
	}
}

// Step advances one peeling round. The caller must invoke it exactly
// Sched.TotalRounds() times, passing consecutive inboxes, then call Absorb
// once with the following round's inbox; Step reports true when the
// schedule is exhausted (at which point every node has peeled).
func (p *Proc) Step(in []congest.Incoming, s *congest.Sender) (finished bool) {
	p.Absorb(in)
	phase := p.round / p.Sched.IterationsPerPhase
	if p.layer < 0 && phase < len(p.Sched.Estimates) {
		if p.activeD <= p.Sched.threshold(phase, p.Eps) {
			p.layer = p.round
			p.estimate = p.Sched.Estimates[phase]
			s.Broadcast(packPeel())
		}
	}
	p.round++
	return p.round >= p.Sched.TotalRounds()
}

// Output computes the node's layer and out-neighbors. Call only after the
// schedule finished. Neighbors that never announced a peel (impossible under
// a correct schedule) are treated as later-peeled.
func (p *Proc) Output() Output {
	out := Output{Layer: p.layer, Estimate: p.estimate}
	for i, u := range p.NI.Neighbors {
		ul := p.nbrLayer[i]
		if ul < 0 || ul > p.layer || (ul == p.layer && int(u) > p.NI.ID) {
			out.Out = append(out.Out, u)
		}
	}
	return out
}

// OutDegree returns the node's current out-degree (valid after the run).
func (p *Proc) OutDegree() int {
	d := 0
	for i, u := range p.NI.Neighbors {
		ul := p.nbrLayer[i]
		if ul < 0 || ul > p.layer || (ul == p.layer && int(u) > p.NI.ID) {
			d++
		}
	}
	return d
}

type runProc struct {
	inner    Proc
	finished bool
}

func (r *runProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	if r.finished {
		r.inner.Absorb(in)
		return true
	}
	r.finished = r.inner.Step(in, s)
	return false
}

func (r *runProc) Output() Output { return r.inner.Output() }

// Run executes the orientation as a standalone CONGEST algorithm. Pass
// arbor > 0 for the known-bound single-phase variant, 0 for doubling.
func Run(g *graph.Graph, arbor int, eps float64, opts ...congest.Option) (*congest.Result[Output], error) {
	sched, err := NewSchedule(g.N(), arbor, eps)
	if err != nil {
		return nil, err
	}
	slab := make([]runProc, g.N())
	factory := func(ni congest.NodeInfo) congest.Proc[Output] {
		p := &slab[ni.ID]
		p.inner.Init(ni, sched, eps)
		return p
	}
	return congest.Run(g, factory, opts...)
}
