package mds

import (
	"math"

	"arbods/internal/congest"
	"arbods/internal/rng"
)

// Output is the per-node result of every algorithm in this package.
type Output struct {
	// InDS reports membership in the final dominating set S ∪ S′.
	InDS bool
	// InPartial reports membership in the partial set S of Lemma 4.1.
	InPartial bool
	// InExtension reports membership in the completion/extension set S′.
	InExtension bool
	// Dominated reports whether the node ended dominated. It must be true
	// for every node whenever the algorithm's guarantee applies; the
	// verifier checks it.
	Dominated bool
	// Packing is the node's final Lemma 4.1 packing value x_v — frozen
	// before any extension-phase rescaling, so the vector {Packing} is a
	// feasible packing and Σ Packing ≤ OPT (Lemma 2.1). It certifies the
	// approximation ratio of the run.
	Packing float64
	// Tau is τ_v = min_{u∈N+(v)} w_u (0 for algorithms that do not use it).
	Tau int64
	// SampledDominators is the Lemma 4.7 quantity c_v: the number of
	// extension-sampled nodes that dominate this node in the iteration it
	// first became dominated (0 if dominated during the partial phase or
	// never). Lemma 4.7 proves E[c_v] ≤ γ+1; the test suite and the
	// diagnostics table check it empirically.
	SampledDominators int
}

// completionMode selects what happens to nodes left undominated by the
// partial phase.
type completionMode int

const (
	// completeNone leaves them undominated (Lemma 4.1 by itself).
	completeNone completionMode = iota + 1
	// completeSelf adds every undominated node to the set (Section 3's T).
	completeSelf
	// completeRequest adds, for every undominated node v, the node of
	// weight τ_v in N+(v) (Theorem 1.1's S′).
	completeRequest
	// completeExtension runs the Lemma 4.6 randomized extension.
	completeExtension
)

// detParams configures the unified proc.
type detParams struct {
	eps    float64
	lambda float64
	mode   completionMode

	// Extension parameters (mode == completeExtension).
	gamma       float64
	skipPartial bool // Theorem 1.3: S = ∅, jump straight to the extension

	// forceIters, when positive, overrides the Lemma 4.1 iteration count —
	// used by the round-truncation sweeps of the lower-bound experiment
	// (fewer rounds ⇒ worse approximation, the Theorem 1.4 phenomenon).
	forceIters int

	// noFreeze disables the freeze-on-domination rule (paper step 3 raises
	// only undominated packing values). Ablation only: without the freeze
	// the packing loses feasibility, so Σx stops lower-bounding OPT and the
	// whole certificate collapses — which is precisely what the ablation
	// experiment demonstrates.
	noFreeze bool

	// The rest depends only on the globally known parameters, so run fills
	// it in once and every proc shares it through one pointer: r is the
	// Lemma 4.1 iteration count, pow the run's (1+ε)^k for every exponent a
	// packing message can carry (k ≤ r), delta is Δ, and extIters and
	// extPhases are the Lemma 4.6 schedule (extension mode only).
	r         int
	pow       *powTable
	delta     int
	extIters  int // iterations per phase: ⌈log_γ(Δ+1)⌉ + 1
	extPhases int // phases: ⌈log_γ(1/λ)⌉
}

// powTable holds base^k for k below its length, so procs decode a packing
// message's exponent with a lookup instead of one math.Pow call per
// message. Exponents past the table fall back to math.Pow; either way the
// value is math.Pow's, bit for bit.
type powTable struct {
	base float64
	tab  []float64
}

func newPowTable(base float64, size int) *powTable {
	t := &powTable{base: base, tab: make([]float64, size)}
	for k := range t.tab {
		t.tab[k] = math.Pow(base, float64(k))
	}
	return t
}

// at returns base^k.
func (t *powTable) at(k int32) float64 {
	if uint32(k) < uint32(len(t.tab)) {
		return t.tab[k]
	}
	return math.Pow(t.base, float64(k))
}

// stage is the proc's position in the globally synchronized schedule. All
// nodes transition through stages in lockstep because transitions depend
// only on the globally known parameters (n, Δ, α, ε, λ, γ).
type stage uint8

const (
	stInit     stage = iota + 1 // broadcast weight
	stSetup                     // compute τ, x⁰; broadcast packing
	stIterA                     // absorb packing; join S on threshold; broadcast join
	stIterB                     // absorb joins; bump x; broadcast packing (+ dom at handoff)
	stCompReq                   // undominated nodes request their τ-neighbor
	stCompJoin                  // requested nodes join S′
	stExtA                      // phase/iteration bookkeeping; sample Γ; broadcast join
	stExtB                      // absorb joins; newly dominated broadcast dom
	stDone
)

// proc is the unified node proc for the deterministic algorithms
// (Theorems 3.1 and 1.1, Lemma 4.1) and the randomized ones
// (Lemma 4.6, Theorems 1.2 and 1.3). One exists per node, so it keeps
// only per-node state, in the narrowest types that hold it; everything
// the nodes share lives behind p.
type proc struct {
	p *detParams

	// Neighbor caches, indexed by position in the sorted neighbor list
	// (len(nbrX) is the degree).
	nbrX   []float64
	nbrDom []bool

	weight int64
	tau    int64
	rand   rng.Stream

	x    float64 // current packing value
	x41  float64 // x frozen at the end of the Lemma 4.1 phase (certificate)
	prob float64 // extension sampling probability

	id     int32
	argmin int32 // the closed neighbor of weight τ, lower ID on ties
	exp    int32 // number of (1+ε) multiplications applied to x
	iter   int32 // Lemma 4.1 iteration counter

	// Extension position.
	phaseIdx int32
	iterIdx  int32

	// Lemma 4.7 bookkeeping.
	cv     int32 // c_v: sampled dominators at first domination
	cvSet  bool  // c_v recorded
	cvSelf bool  // this node sampled itself while undominated last round

	st        stage
	inS       bool
	inSP      bool // in S′
	dom       bool
	requested bool // received a requestMsg
	inGamma   bool
}

var _ congest.Proc[Output] = (*proc)(nil)

// init constructs the proc in place (pr is a slab entry the run's factory
// owns), carving the neighbor caches from the run's arena.
func (pr *proc) init(p *detParams, ni congest.NodeInfo) {
	deg := ni.Degree()
	*pr = proc{
		p:      p,
		nbrX:   ni.Arena.Float64s(deg),
		weight: ni.Weight,
		rand:   ni.Rand,
		id:     int32(ni.ID),
		st:     stInit,
	}
	if p.mode == completeExtension {
		pr.nbrDom = ni.Arena.Bools(deg)
	}
}

// partialIterations returns the Lemma 4.1 iteration count r: the integer
// with (1+ε)^{r-1} ≤ λ(Δ+1) < (1+ε)^r, or 0 when λ < 1/(Δ+1) (in which
// case the lemma sets S = ∅).
func partialIterations(eps, lambda float64, delta int) int {
	target := lambda * float64(delta+1)
	if target < 1 {
		return 0
	}
	r := int(math.Floor(math.Log(target)/math.Log1p(eps))) + 1
	for r > 1 && math.Pow(1+eps, float64(r-1)) > target {
		r--
	}
	for math.Pow(1+eps, float64(r)) <= target {
		r++
	}
	return r
}

// extensionIterations returns the per-phase iteration count of Lemma 4.6:
// r = ⌈log_γ(Δ+1)⌉ + 1, which guarantees the sampling probability reaches 1.
func extensionIterations(gamma float64, delta int) int {
	r := int(math.Ceil(math.Log(float64(delta+1))/math.Log(gamma))) + 1
	if r < 1 {
		r = 1
	}
	return r
}

// extensionPhases returns t = ⌈log_γ(1/λ)⌉, the number of Γ-phases of
// Lemma 4.6.
func extensionPhases(gamma, lambda float64) int {
	t := int(math.Ceil(math.Log(1/lambda) / math.Log(gamma)))
	if t < 1 {
		t = 1
	}
	return t
}

// xValue reconstructs τ·(1+ε)^exp/(Δ+1) from a packing message.
func (pr *proc) xValue(tau int64, exp int32) float64 {
	return float64(tau) * pr.p.pow.at(exp) / float64(pr.p.delta+1)
}

// absorb processes an inbox, updating neighbor caches. It reports whether
// any message implied that this node is now dominated. The sender's
// position in the neighbor caches comes precomputed with each packet
// (Incoming.Idx), so there is no per-message search.
func (pr *proc) absorb(in []congest.Incoming) (dominatedNow bool) {
	for _, m := range in {
		i := m.Idx
		switch m.P.Tag {
		case congest.TagPacking:
			tau, exp, _ := packingFields(m.P)
			pr.nbrX[i] = pr.xValue(tau, exp)
		case congest.TagJoin:
			if pr.nbrDom != nil {
				pr.nbrDom[i] = true
			}
			dominatedNow = true
		case congest.TagDom:
			if pr.nbrDom != nil {
				pr.nbrDom[i] = true
			}
		case congest.TagRequest:
			pr.requested = true
		}
	}
	return dominatedNow
}

// bigX returns X_u = Σ_{v∈N+(u)} x_v over the full closed neighborhood.
func (pr *proc) bigX() float64 {
	sum := pr.x
	for _, xv := range pr.nbrX {
		sum += xv
	}
	return sum
}

// bigXUndominated returns X_u restricted to undominated closed neighbors
// (the Lemma 4.6 quantity).
func (pr *proc) bigXUndominated() float64 {
	var sum float64
	if !pr.dom {
		sum = pr.x
	}
	for i, xv := range pr.nbrX {
		if !pr.nbrDom[i] {
			sum += xv
		}
	}
	return sum
}

// Step implements congest.Proc.
func (pr *proc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	switch pr.st {
	case stInit:
		s.Broadcast(packWeight(pr.weight, int32(len(pr.nbrX))))
		pr.st = stSetup
		return false

	case stSetup:
		pr.computeTau(in)
		pr.x = float64(pr.tau) / float64(pr.p.delta+1)
		pr.x41 = pr.x
		if pr.p.r > 0 {
			s.Broadcast(packPacking(pr.tau, 0, 0))
			pr.st = stIterA
			return false
		}
		return pr.afterPartial(s, true /* broadcastPacking */)

	case stIterA:
		pr.absorb(in)
		if !pr.inS && pr.bigX() >= pr.threshold() {
			pr.inS = true
			pr.dom = true
			s.Broadcast(packJoin())
		}
		pr.st = stIterB
		return false

	case stIterB:
		if pr.absorb(in) {
			pr.dom = true
		}
		pr.iter++
		if !pr.dom || (pr.p.noFreeze && !pr.inS) {
			// Paper, step 3: undominated nodes raise their packing value.
			// The raise of the final iteration is included — property (b)
			// needs x_v > λτ_v for every undominated node. (With the
			// noFreeze ablation, dominated non-members keep raising too,
			// which destroys packing feasibility.)
			pr.exp++
			pr.x *= 1 + pr.p.eps
			// The final raise is broadcast only when someone will read it:
			// the completion request round or the extension. Self/none
			// completions terminate everyone this round, so broadcasting
			// would only ship messages to terminated nodes.
			lastAndLocal := int(pr.iter) == pr.p.r &&
				(pr.p.mode == completeSelf || pr.p.mode == completeNone)
			if !lastAndLocal {
				s.Broadcast(packPacking(pr.tau, pr.exp, 0))
			}
		}
		if int(pr.iter) < pr.p.r {
			pr.st = stIterA
			return false
		}
		return pr.afterPartial(s, false)

	case stCompReq:
		// Inbox may contain the final packing broadcasts; absorb for
		// completeness of the local view.
		pr.absorb(in)
		if !pr.dom {
			if pr.argmin == pr.id {
				pr.inSP = true
				pr.dom = true
			} else {
				s.Send(int(pr.argmin), packRequest())
				// The τ-neighbor joins next round, so v is dominated.
				pr.dom = true
			}
		}
		pr.st = stCompJoin
		return false

	case stCompJoin:
		pr.absorb(in)
		if pr.requested && !pr.inS {
			pr.inSP = true
			pr.dom = true
		}
		pr.st = stDone
		return true

	case stExtA:
		pr.absorb(in)
		if pr.iterIdx == 0 {
			pr.beginPhase()
		} else {
			pr.prob = math.Min(pr.prob*pr.p.gamma, 1)
			if pr.inGamma && pr.bigXUndominated() < pr.gammaThreshold() {
				pr.inGamma = false
			}
		}
		if int(pr.iterIdx) == pr.p.extIters-1 {
			// Last iteration of the phase samples with probability 1
			// (the proof of Lemma 4.6 relies on it).
			pr.prob = 1
		}
		if pr.inGamma && pr.rand.Bernoulli(pr.prob) {
			if !pr.dom {
				// First domination happens now, by its own sampling; the
				// same-iteration sampled neighbors arrive next round.
				pr.cvSelf = true
			}
			pr.inSP = true
			pr.dom = true
			pr.inGamma = false
			s.Broadcast(packJoin())
		}
		pr.st = stExtB
		return false

	case stExtB:
		wasDom := pr.dom
		var joins int32
		for _, m := range in {
			if m.P.Tag == congest.TagJoin {
				joins++
			}
		}
		if pr.absorb(in) {
			pr.dom = true
		}
		switch {
		case pr.cvSelf:
			pr.cv = 1 + joins
			pr.cvSet = true
			pr.cvSelf = false
		case !wasDom && pr.dom && !pr.cvSet:
			pr.cv = joins
			pr.cvSet = true
		}
		phases, iters := int32(pr.p.extPhases), int32(pr.p.extIters)
		last := pr.phaseIdx == phases-1 && pr.iterIdx == iters-1
		if pr.dom && !wasDom && !last {
			s.Broadcast(packDom())
		}
		pr.iterIdx++
		if pr.iterIdx == iters {
			pr.iterIdx = 0
			pr.phaseIdx++
		}
		if pr.phaseIdx == phases {
			pr.st = stDone
			return true
		}
		pr.st = stExtA
		return false
	}
	return true
}

// computeTau derives τ_v and the minimum-weight closed neighbor from the
// round-1 inbox: every neighbor's weight message, in ascending sender ID
// order. Ties break toward the lower ID so the algorithm is deterministic.
func (pr *proc) computeTau(in []congest.Incoming) {
	pr.tau, pr.argmin = pr.weight, pr.id
	for _, m := range in {
		if w, _ := weightFields(m.P); w < pr.tau || (w == pr.tau && m.From < pr.argmin) {
			pr.tau, pr.argmin = w, m.From
		}
	}
}

// threshold returns the Lemma 4.1 join threshold w_u/(1+ε).
func (pr *proc) threshold() float64 {
	return float64(pr.weight) / (1 + pr.p.eps)
}

// gammaThreshold returns the Lemma 4.6 Γ-membership threshold w_u/γ, with a
// tiny relative slack. The slack matters: the termination proof of the lemma
// rests on the τ-neighbor of an undominated node reaching X_u ≥ w_u/γ, and
// with parameters like γ^t·λ = 1 that comparison lands exactly on the
// boundary, where float rounding must not be allowed to flip it.
func (pr *proc) gammaThreshold() float64 {
	return float64(pr.weight) / pr.p.gamma * (1 - 1e-9)
}

// afterPartial transitions out of the Lemma 4.1 phase. broadcastPacking is
// set when coming straight from setup (r == 0) and the extension still needs
// the initial packing values on the wire.
func (pr *proc) afterPartial(s *congest.Sender, broadcastPacking bool) bool {
	pr.x41 = pr.x
	switch pr.p.mode {
	case completeNone:
		pr.st = stDone
		return true
	case completeSelf:
		if !pr.dom {
			pr.inSP = true
			pr.dom = true
		}
		pr.st = stDone
		return true
	case completeRequest:
		pr.st = stCompReq
		return false
	case completeExtension:
		if broadcastPacking {
			s.Broadcast(packPacking(pr.tau, pr.exp, 0))
		}
		if pr.dom {
			// The extension maintains X_u over undominated nodes only, so
			// neighbors must learn who is already dominated.
			s.Broadcast(packDom())
		}
		pr.st = stExtA
		return false
	}
	pr.st = stDone
	return true
}

// beginPhase starts Γ-phase phaseIdx: rescale undominated packing values by
// γ (for every phase after the first), reset the sampling probability, and
// recompute Γ membership.
func (pr *proc) beginPhase() {
	if pr.phaseIdx > 0 {
		if !pr.dom {
			pr.x *= pr.p.gamma
		}
		for i := range pr.nbrX {
			if !pr.nbrDom[i] {
				pr.nbrX[i] *= pr.p.gamma
			}
		}
	}
	pr.prob = 1 / float64(pr.p.delta+1)
	pr.inGamma = !pr.inS && !pr.inSP && pr.bigXUndominated() >= pr.gammaThreshold()
}

// Output implements congest.Proc.
func (pr *proc) Output() Output {
	return Output{
		InDS:              pr.inS || pr.inSP,
		InPartial:         pr.inS,
		InExtension:       pr.inSP,
		Dominated:         pr.dom,
		Packing:           pr.x41,
		Tau:               pr.tau,
		SampledDominators: int(pr.cv),
	}
}
