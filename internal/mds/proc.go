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
	// packing message can carry (k ≤ r), delta is Δ, and extStart,
	// extIters and extPhases are the Lemma 4.6 schedule (extension mode
	// only), from which every node reads its position off the round number.
	r         int
	pow       *powTable
	delta     int
	extStart  int // round of the extension's first ExtA: 2r+2
	extIters  int // iterations per phase: ⌈log_γ(Δ+1)⌉ + 1
	extPhases int // phases: ⌈log_γ(1/λ)⌉

	// ext is the per-node extension state, indexed by node ID: nil unless
	// mode == completeExtension (see extState).
	ext []extState
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
// only on the globally known parameters (n, Δ, α, ε, λ, γ). The extension
// is one stage: its nodes sleep through rounds, so they read their step
// within it off the round number instead of counting their own steps.
type stage uint8

const (
	stInit     stage = iota + 1 // broadcast weight
	stSetup                     // compute τ, x⁰; broadcast packing
	stIterA                     // absorb packing; join S on threshold; broadcast join
	stIterB                     // absorb joins; bump x; broadcast packing (+ dom at handoff)
	stCompReq                   // undominated nodes request their τ-neighbor
	stCompJoin                  // requested nodes join S′
	stExt                       // Lemma 4.6 extension: ExtA and ExtB by round parity (see extStep)
	stDone
)

// proc is the unified node proc for the deterministic algorithms
// (Theorems 3.1 and 1.1, Lemma 4.1) and the randomized ones
// (Lemma 4.6, Theorems 1.2 and 1.3). One exists per node, so it keeps
// only per-node state, in the narrowest types that hold it; everything
// the nodes share lives behind p.
type proc struct {
	p *detParams

	// nbrX is the packing-value cache, indexed by position in the sorted
	// neighbor list (len(nbrX) is the degree).
	nbrX []float64

	weight int64
	tau    int64

	x   float64 // current packing value
	x41 float64 // x frozen at the end of the Lemma 4.1 phase (certificate)

	id     int32
	argmin int32 // the closed neighbor of weight τ, lower ID on ties
	exp    int32 // number of (1+ε) multiplications applied to x
	iter   int32 // Lemma 4.1 iteration counter

	st        stage
	inS       bool
	inSP      bool // in S′
	dom       bool
	requested bool // received a requestMsg
}

// extState is a node's Lemma 4.6 extension state (Theorems 1.2 and 1.3).
// run allocates one per node, in detParams.ext, only in extension mode,
// so the procs of the deterministic algorithms do not carry it.
type extState struct {
	// nbrDom caches which neighbors are dominated, indexed like nbrX.
	nbrDom []bool
	rand   rng.Stream
	prob   float64 // sampling probability, read only while in Γ
	undom  int32   // neighbors not yet known to be dominated (false in nbrDom)

	// Lemma 4.7 bookkeeping.
	cv     int32 // c_v: sampled dominators at first domination
	cvSet  bool  // c_v recorded
	cvSelf bool  // this node sampled itself while undominated last round

	inGamma bool
}

// markDom records that neighbor i is dominated.
func (e *extState) markDom(i int32) {
	if !e.nbrDom[i] {
		e.nbrDom[i] = true
		e.undom--
	}
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
		id:     int32(ni.ID),
		st:     stInit,
	}
	if p.ext != nil {
		p.ext[ni.ID] = extState{nbrDom: ni.Arena.Bools(deg), rand: ni.Rand, undom: int32(deg)}
	}
}

// ext returns the node's extension state, nil outside extension mode.
func (pr *proc) ext() *extState {
	if pr.p.ext == nil {
		return nil
	}
	return &pr.p.ext[pr.id]
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
	r := ceilLogRatio(math.Log(float64(delta+1))/math.Log(gamma)) + 1
	if r < 1 {
		r = 1
	}
	return r
}

// extensionPhases returns t = ⌈log_γ(1/λ)⌉, the number of Γ-phases of
// Lemma 4.6.
func extensionPhases(gamma, lambda float64) int {
	t := ceilLogRatio(math.Log(1/lambda) / math.Log(gamma))
	if t < 1 {
		t = 1
	}
	return t
}

// ceilLogRatio returns ⌈x⌉ for a ratio of logarithms, less the relative
// slack gammaThreshold allows: Theorem 1.3's γ = (Δ+1)^{1/k} makes
// log(Δ+1)/log γ exactly k, but at Δ=24, k=3 the floats give
// 3.0000000000000004, and a bare ceil would schedule a fourth phase.
func ceilLogRatio(x float64) int { return int(math.Ceil(x * (1 - 1e-9))) }

// xValue reconstructs τ·(1+ε)^exp/(Δ+1) from a packing message.
func (pr *proc) xValue(tau int64, exp int32) float64 {
	return float64(tau) * pr.p.pow.at(exp) / float64(pr.p.delta+1)
}

// absorb processes an inbox, updating neighbor caches. It reports whether
// any message implied that this node is now dominated. The sender's
// position in the neighbor caches comes precomputed with each packet
// (Incoming.Idx), so there is no per-message search.
func (pr *proc) absorb(in []congest.Incoming) (dominatedNow bool) {
	e := pr.ext()
	for _, m := range in {
		i := m.Idx
		switch m.P.Tag {
		case congest.TagPacking:
			tau, exp, _ := packingFields(m.P)
			pr.nbrX[i] = pr.xValue(tau, exp)
		case congest.TagJoin:
			if e != nil {
				e.markDom(i)
			}
			dominatedNow = true
		case congest.TagDom:
			if e != nil {
				e.markDom(i)
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
func (pr *proc) bigXUndominated(e *extState) float64 {
	var sum float64
	if !pr.dom {
		sum = pr.x
	}
	for i, xv := range pr.nbrX {
		if !e.nbrDom[i] {
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

	case stExt:
		return pr.extStep(round, in, s)
	}
	return true
}

// extStep runs one round of the Lemma 4.6 extension. Round extStart+2i
// is ExtA of iteration i mod extIters of phase i / extIters, and the round
// after it is the same iteration's ExtB.
func (pr *proc) extStep(round int, in []congest.Incoming, s *congest.Sender) bool {
	p, e := pr.p, pr.ext()
	k := round - p.extStart
	phase, iter := k/2/p.extIters, k/2%p.extIters
	if k%2 == 0 {
		pr.extA(e, phase, iter, in, s)
	} else if pr.extB(e, phase, iter, in, s) {
		return true
	}
	pr.sleep(e, phase, s)
	return false
}

// extA is an iteration's first round: phase bookkeeping, sample Γ,
// broadcast join.
func (pr *proc) extA(e *extState, phase, iter int, in []congest.Incoming, s *congest.Sender) {
	pr.absorb(in)
	if iter == 0 {
		pr.beginPhase(e, phase)
	} else if e.inGamma {
		e.prob = min(e.prob*pr.p.gamma, 1)
		if pr.bigXUndominated(e) < pr.gammaThreshold() {
			e.inGamma = false
		}
	}
	if iter == pr.p.extIters-1 {
		// Last iteration of the phase samples with probability 1
		// (the proof of Lemma 4.6 relies on it).
		e.prob = 1
	}
	if e.inGamma && e.rand.Bernoulli(e.prob) {
		if !pr.dom {
			// First domination happens now, by its own sampling; the
			// same-iteration sampled neighbors arrive next round.
			e.cvSelf = true
		}
		pr.inSP = true
		pr.dom = true
		e.inGamma = false
		s.Broadcast(packJoin())
	}
}

// extB is an iteration's second round: absorb joins, record c_v, and
// broadcast dom if newly dominated. It reports whether this was the
// extension's last round, where every node terminates.
func (pr *proc) extB(e *extState, phase, iter int, in []congest.Incoming, s *congest.Sender) bool {
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
	case e.cvSelf:
		e.cv = 1 + joins
		e.cvSet = true
		e.cvSelf = false
	case !wasDom && pr.dom && !e.cvSet:
		e.cv = joins
		e.cvSet = true
	}
	last := phase == pr.p.extPhases-1 && iter == pr.p.extIters-1
	if pr.dom && !wasDom && !last {
		s.Broadcast(packDom())
	}
	if last {
		pr.st = stDone
	}
	return last
}

// sleep puts a node outside Γ to sleep after its ExtA or ExtB. Such a node
// draws no randomness, and until a join or dom reaches it, which wakes it,
// its steps change nothing; so it sleeps until the next phase start, where
// beginPhase may put it back in Γ. A dominated node whose neighbors are
// all dominated can never rejoin Γ (its X over undominated nodes is 0,
// below any w/γ), so it sleeps until the final ExtB, where it terminates.
// A node that sampled itself while undominated stays awake for the ExtB
// that records its c_v.
func (pr *proc) sleep(e *extState, phase int, s *congest.Sender) {
	if e.inGamma || e.cvSelf {
		return
	}
	p := pr.p
	final := p.extStart + 2*p.extPhases*p.extIters - 1 // the last ExtB
	wake := p.extStart + 2*(phase+1)*p.extIters        // the next phase start
	if wake > final || pr.dom && e.undom == 0 {
		wake = final
	}
	congest.SleepUntil(s, wake)
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
		pr.st = stExt
		return false
	}
	pr.st = stDone
	return true
}

// beginPhase starts Γ-phase phase: rescale undominated packing values by
// γ (for every phase after the first), reset the sampling probability, and
// recompute Γ membership.
func (pr *proc) beginPhase(e *extState, phase int) {
	if phase > 0 {
		if !pr.dom {
			pr.x *= pr.p.gamma
		}
		for i := range pr.nbrX {
			if !e.nbrDom[i] {
				pr.nbrX[i] *= pr.p.gamma
			}
		}
	}
	e.prob = 1 / float64(pr.p.delta+1)
	e.inGamma = !pr.inS && !pr.inSP && pr.bigXUndominated(e) >= pr.gammaThreshold()
}

// Output implements congest.Proc.
func (pr *proc) Output() Output {
	out := Output{
		InDS:        pr.inS || pr.inSP,
		InPartial:   pr.inS,
		InExtension: pr.inSP,
		Dominated:   pr.dom,
		Packing:     pr.x41,
		Tau:         pr.tau,
	}
	if e := pr.ext(); e != nil {
		out.SampledDominators = int(e.cv)
	}
	return out
}
