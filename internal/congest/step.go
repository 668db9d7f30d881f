package congest

import (
	"cmp"
	"slices"
)

// stepShard is one worker's node range plus its per-round step results.
// Its Sender owns the shard's outbox slabs: every node in range appends
// its sends there, in node order, and the step phase publishes each
// node's slice of them as that node's outbox.
type stepShard struct {
	lo, hi int
	active int   // nodes in range still running after this round
	err    error // first Sender error in range (lowest node ID)

	// cur is the node whose Step is currently executing — a plain store
	// per node, read only by the panic recovery path so a recovered panic
	// knows which node's callback blew up.
	cur int
	// pan is the panic recovered from this shard's range this round, if
	// any. The engine converts the lowest-node pan across shards into the
	// run's *ProcPanicError at the barrier; panics take precedence over
	// Sender errors so the reported failure is worker-count invariant
	// (shards keep stepping past a Sender error but stop at a panic, so
	// the Sender-error set can differ across layouts — the panic set of
	// the surviving minimum cannot).
	pan *ProcPanicError

	snd Sender

	// per-round traffic sent from this range, counted per send: a
	// broadcast is deg(v) messages, including those to terminated nodes
	// (their bandwidth is consumed whether or not delivery happens)
	msgs, bits int64

	// per-run accumulator, merged by finish. Tag-indexed: recording a
	// send is two array adds, and finish aggregates by scanning MaxTags
	// entries — no map, no hashing in the hot path.
	stats [MaxTags]MessageStat

	_ [16]byte // round the live fields up to a line boundary
	_ linePad  // keep adjacent shards' hot fields off shared cache lines
}

// stepRange steps every node in shard w's range. Each node touches only
// its own proc, inbox and outbox record, and appends only to this shard's
// slabs, so shards are race-free.
//
// A panic in a Proc.Step call (or in an injected engine fault) is
// recovered here — on the worker goroutine that runs the shard — and
// parked in the shard for the engine's barrier to convert into a run
// error, so one faulty proc fails one run instead of the process.
func (e *engine[O]) stepRange(w int) {
	s := &e.steps[w]
	s.active, s.msgs, s.bits = 0, 0, 0
	// Reset the error like routeRange resets its own: a Sender error from
	// an aborted previous run must not poison a reused Runner.
	s.err = nil
	s.pan = nil
	s.cur = -1
	defer func() {
		if v := recover(); v != nil {
			s.pan = newProcPanic(e.round, s.cur, v)
		}
	}()
	round := e.round
	if e.cfg.faults != nil && w == 0 {
		// The engine-side injection seam: a chaos test arms "congest.step"
		// to panic (exercising exactly this recover, on a pool goroutine
		// when parallel), to sleep (a slow round), or to fail the round
		// with an error. Fired once per round, on shard 0 only, so Times
		// accounting is layout-independent.
		if err := e.cfg.faults.FireRound("congest.step", round); err != nil {
			s.err = err
			return
		}
	}
	snd := &s.snd
	snd.bc, snd.tg = snd.bc[:0], snd.tg[:0]
	msgStats := e.cfg.msgStats
	for v := s.lo; v < s.hi; v++ {
		if e.done[v] {
			// Silence terminated nodes every round: a node's final messages
			// are routed the round it finishes, and receivers pull from
			// every neighbor every round.
			e.sent[v] = false
			continue
		}
		s.cur = v
		snd.owner, snd.neighbors, snd.err = int32(v), e.g.Neighbors(v), nil
		b0, t0 := len(snd.bc), len(snd.tg)
		snd.bcStart = b0
		if e.procs[v].Step(round, e.inbox[v], snd) {
			e.done[v] = true
		} else {
			s.active++
		}
		if snd.err != nil && s.err == nil {
			s.err = snd.err
		}
		bc, tg := snd.bc[b0:], snd.tg[t0:]
		e.sent[v] = len(bc)+len(tg) > 0
		if !e.sent[v] {
			continue
		}
		ob := &e.outs[v]
		*ob = outbox{nbc: int32(len(bc)), ntg: int32(len(tg))}
		if len(bc) > 0 {
			ob.first = bc[0]
		}
		if len(bc) > 1 || len(tg) > 0 {
			e.lists[v] = outList{bc: bc[:len(bc):len(bc)], tg: tg[:len(tg):len(tg)]}
		}
		s.account(bc, tg, int64(len(snd.neighbors)), msgStats)
	}
}

// account adds one node's sends to the shard's traffic totals and groups
// its targeted sends by receiver — once, here, so the route phase finds a
// receiver's group with a binary search instead of rescanning the whole
// outbox per receiver. The sort is stable, so each group keeps send order.
func (s *stepShard) account(bc []Packet, tg []outPacket, deg int64, msgStats bool) {
	for _, p := range bc {
		b := int64(p.Bits) * deg
		s.msgs += deg
		s.bits += b
		if msgStats {
			st := &s.stats[p.Tag]
			st.Count += deg
			st.Bits += b
		}
	}
	for i := range tg {
		b := int64(tg[i].p.Bits)
		s.msgs++
		s.bits += b
		if msgStats {
			st := &s.stats[tg[i].p.Tag]
			st.Count++
			st.Bits += b
		}
	}
	if len(tg) > 1 && !slices.IsSortedFunc(tg, byReceiver) {
		slices.SortStableFunc(tg, byReceiver)
	}
}

func byReceiver(a, b outPacket) int { return cmp.Compare(a.to, b.to) }
