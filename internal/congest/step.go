package congest

import (
	"cmp"
	"slices"
)

// stepShard is one worker's per-round step state and results; its node
// range comes from the round's layout (see shard.go). Its Sender fills the
// shard's outbox slabs: every node in range appends its sends there, in
// node order. A node's lone send moves into its outbox head and leaves the
// slab, so the slabs hold only the traffic of nodes that sent more than
// one packet, and those nodes' heads say where it sits.
type stepShard struct {
	active int   // nodes in range still running after this round
	err    error // first Sender error in range (lowest node ID)

	// cur is the node being stepped — a plain store per node, read only by
	// the panic recovery path so a recovered panic knows which node's
	// callback blew up (-1 before the first node: an engine fault).
	cur int
	// pan is the panic recovered from this shard's range this round, if
	// any. The engine converts the lowest-node pan across shards into the
	// run's *ProcPanicError at the barrier; panics take precedence over
	// Sender errors so the reported failure is worker-count invariant
	// (shards keep stepping past a Sender error but stop at a panic, so
	// the Sender-error set can differ across layouts — the panic set of
	// the surviving minimum cannot).
	pan *ProcPanicError
	// bwErr is the strict-mode bandwidth violation of this round with the
	// lowest (sender, receiver) in range. Checked after pan and err.
	bwErr *BandwidthError

	snd Sender
	// in is the inbox scratch: each node's inbox is pulled into it just
	// before the node's Step and is dead once Step returns.
	in []Incoming

	// per-round traffic sent from this range, counted per send: a
	// broadcast is deg(v) messages, including those to terminated nodes
	// (their bandwidth is consumed whether or not delivery happens)
	msgs, bits int64
	// senders lists, in node order, the nodes in range that sent a message
	// this round, for the mark pass. Appending stops once msgs exceeds
	// lightMax: the round is then dense and the list is not read. Each
	// listed node sent at least one message, so the list never outgrows
	// lightMax.
	senders []int32

	// per-run accumulators, merged by finish. stats is tag-indexed:
	// recording a send is two array adds, and finish aggregates by
	// scanning MaxTags entries — no map, no hashing in the hot path.
	dropped     int64 // messages pulled by terminated receivers in range
	violations  int64 // audit mode: edge-rounds above budget sent from range
	maxEdgeBits int64
	stats       [MaxTags]MessageStat

	// Every shard's pulls read the slab headers below, so a full line
	// keeps them off the lines the fields above rewrite for every node.
	_ linePad

	// bcs and tgs are the shard's outbox slabs, one pair per round parity.
	// Round r's Sender appends to pair r&1 and stores it back when the
	// range is done; round r+1's pulls read it through the multi-send
	// heads while the Sender fills the other pair, so a reader never sees
	// a slab header its owner is rewriting.
	bcs [2][]Packet
	tgs [2][]outPacket

	_ [48]byte // round the live fields up to a line boundary
	_ linePad  // keep adjacent shards' hot fields off shared cache lines
}

// stepRange steps every node in shard w's range. Each node writes only
// its own proc, done flag and outbox record, reads only its neighbors'
// previous-round outboxes, and appends only to this shard's slabs and
// inbox scratch, so shards are race-free.
//
// A panic in a Proc.Step call (or in an injected engine fault) is
// recovered here — on the worker goroutine that runs the shard — and
// parked in the shard for the engine's barrier to convert into a run
// error, so one faulty proc fails one run instead of the process.
func (e *engine[O]) stepRange(w int) {
	s := &e.steps[w]
	s.active, s.msgs, s.bits = 0, 0, 0
	s.senders = s.senders[:0]
	// Reset the errors every round: one from an aborted previous run must
	// not poison a reused Runner.
	s.err, s.pan, s.bwErr = nil, nil, nil
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
	cur, prev := round&1, round&1^1
	snd := &s.snd
	snd.bc, snd.tg = s.bcs[cur][:0], s.tgs[cur][:0]
	sent, outs := e.sent[cur], e.outs[cur]
	// After a dense round every node walks its neighbor list. A light
	// round — one after a sparse or silent round, or round 0, whose marks
	// bind cleared — pulls only at the nodes the mark pass found to be
	// receivers: any other node's walk would find nothing.
	marks, lightMax := e.marks, e.lightMax
	light := e.prevMsgs <= lightMax
	bounds := e.bounds
	if light {
		bounds = e.nodeBounds
	}
	in := s.in
	for v := int(bounds[w]); v < int(bounds[w+1]); v++ {
		s.cur = v
		in = in[:0]
		if !light || marks.has(v) {
			in = e.pullInbox(in, v, prev)
		}
		if e.done[v] {
			// Terminated nodes stay silent, and whatever reaches them is
			// counted and dropped.
			sent[v] = false
			s.dropped += int64(len(in))
			continue
		}
		snd.owner, snd.neighbors, snd.err = int32(v), e.g.Neighbors(v), nil
		b0, t0 := len(snd.bc), len(snd.tg)
		snd.bcStart = b0
		if e.procs[v].Step(round, in, snd) {
			e.done[v] = true
		} else {
			s.active++
		}
		if snd.err != nil && s.err == nil {
			s.err = snd.err
		}
		bc, tg := snd.bc[b0:], snd.tg[t0:]
		n := len(bc) + len(tg)
		sent[v] = n > 0
		if n == 0 {
			continue
		}
		// A lone send moves into the head, and the slab drops its copy:
		// bc and tg stay readable until the next node's Step appends.
		ob := &outs[v]
		switch {
		case n > 1:
			*ob = spill(w, b0, t0, len(bc), n)
		case len(bc) == 1:
			*ob = outbox{first: bc[0], n: 1, to: -1}
			snd.bc = snd.bc[:b0]
		default:
			*ob = outbox{first: tg[0].p, n: 1, to: tg[0].to}
			snd.tg = snd.tg[:t0]
		}
		e.account(s, int32(v), snd.neighbors, bc, tg)
		if len(snd.neighbors) > 0 && s.msgs <= lightMax {
			s.senders = append(s.senders, int32(v))
		}
	}
	s.in = in // keep a grown scratch warm
	s.bcs[cur], s.tgs[cur] = snd.bc, snd.tg
}

// sends returns the packets of a head with n > 1, which par's round wrote
// into the slabs of the shard the head names.
func (e *engine[O]) sends(ob *outbox, par int) ([]Packet, []outPacket) {
	s := &e.steps[ob.to]
	bcAt, tgAt, nbc := int(ob.first.A), int(ob.first.B), int(ob.first.Bits)
	return s.bcs[par][bcAt : bcAt+nbc], s.tgs[par][tgAt : tgAt+int(ob.n)-nbc]
}

// mark sets the bit of every receiver of round par's sends — all neighbors
// of a broadcaster, the receiver of each targeted send — after clearing
// the previous marks. It runs on the coordinator after a sparse round,
// when every shard's sender list is complete, and costs O(M + n/64).
func (e *engine[O]) mark(par int) {
	marks, outs := e.marks, e.outs[par]
	clear(marks)
	for w := range e.steps {
		for _, v := range e.steps[w].senders {
			ob := &outs[v]
			switch {
			case ob.n == 1 && ob.to >= 0:
				marks.set(ob.to)
			case ob.n > 1 && ob.first.Bits == 0: // targeted sends only
				_, tg := e.sends(ob, par)
				for _, t := range tg {
					marks.set(t.to)
				}
			default: // a broadcast reaches every neighbor
				for _, u := range e.g.Neighbors(int(v)) {
					marks.set(u)
				}
			}
		}
	}
}

// bitset holds one bit per node.
type bitset []uint64

func (b bitset) set(u int32)    { b[u>>6] |= 1 << (u & 63) }
func (b bitset) has(v int) bool { return b[v>>6]&(1<<(v&63)) != 0 }

// pullInbox appends u's inbox — what each neighbor sent u in the round
// whose outboxes have parity par — to in. Neighbors come in ascending ID
// order, so the inbox is in exact (sender ID, send index) order and Idx
// is just the walk's loop index, at every worker count and shard layout.
func (e *engine[O]) pullInbox(in []Incoming, u, par int) []Incoming {
	sent, outs := e.sent[par], e.outs[par]
	u32 := int32(u)
	for i, v := range e.g.Neighbors(u) {
		if !sent[v] {
			continue
		}
		ob := &outs[v]
		switch {
		case ob.n > 1:
			bc, tg := e.sends(ob, par)
			in = pull(in, bc, tg, v, int32(i), u32)
		case ob.to < 0 || ob.to == u32:
			in = append(in, Incoming{From: v, Idx: int32(i), P: ob.first})
		}
	}
	return in
}

// pull appends what v sent u when v sent more than one packet: the
// targeted sends tg addressed to u (grouped by receiver in the step phase)
// interleaved with v's broadcasts bc back into send order. i is v's
// position in u's neighbor list.
func pull(dst []Incoming, bc []Packet, tg []outPacket, v, i, u int32) []Incoming {
	lo, hi := group(tg, u)
	k := 0 // next broadcast
	for _, t := range tg[lo:hi] {
		for ; k < int(t.before); k++ {
			dst = append(dst, Incoming{From: v, Idx: i, P: bc[k]})
		}
		dst = append(dst, Incoming{From: v, Idx: i, P: t.p})
	}
	for ; k < len(bc); k++ {
		dst = append(dst, Incoming{From: v, Idx: i, P: bc[k]})
	}
	return dst
}

// group returns the bounds [lo, hi) of the targeted sends in tg (grouped
// by receiver) addressed to u.
func group(tg []outPacket, u int32) (lo, hi int) {
	lo, hi = 0, len(tg)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if tg[m].to < u {
			lo = m + 1
		} else {
			hi = m
		}
	}
	hi = lo
	for hi < len(tg) && tg[hi].to == u {
		hi++
	}
	return lo, hi
}

// account adds node v's sends to the shard's traffic totals, groups its
// targeted sends by receiver — once, here, so a receiver's pull finds its
// group with a binary search instead of rescanning the whole outbox; the
// sort is stable, so each group keeps send order — and does the
// per-directed-edge bandwidth accounting. The budget applies per edge
// (v, u), so all of v's messages to u this round share one slot: all of
// v's broadcasts plus v's targeted group for u.
func (e *engine[O]) account(s *stepShard, v int32, nbrs []int32, bc []Packet, tg []outPacket) {
	deg := int64(len(nbrs))
	msgStats := e.cfg.msgStats
	var bcBits int64
	for _, p := range bc {
		b := int64(p.Bits)
		bcBits += b
		s.msgs += deg
		s.bits += b * deg
		if msgStats {
			st := &s.stats[p.Tag]
			st.Count += deg
			st.Bits += b * deg
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
	if deg == 0 {
		return // a broadcast into no edges; targeted sends cannot exist
	}

	// Edges without a targeted group carry exactly the broadcasts; a
	// group's edge carries the broadcasts plus the group. Every edge
	// carries at least bcBits, so when that alone is over budget, every
	// edge is, starting at the lowest neighbor.
	budget, strict := int64(e.budget), e.cfg.mode == Congest
	if len(bc) > 0 && bcBits > s.maxEdgeBits {
		s.maxEdgeBits = bcBits
	}
	over := budget > 0 && bcBits > budget
	if over {
		if !strict {
			s.violations += deg
		} else if s.bwErr == nil {
			lo, hi := group(tg, nbrs[0])
			s.bwErr = e.bandwidthError(v, nbrs[0], bcBits+groupBits(tg[lo:hi]))
		}
	}
	for lo := 0; lo < len(tg); {
		u := tg[lo].to
		hi := lo + 1
		for hi < len(tg) && tg[hi].to == u {
			hi++
		}
		sum := bcBits + groupBits(tg[lo:hi])
		lo = hi
		if sum > s.maxEdgeBits {
			s.maxEdgeBits = sum
		}
		if over || budget == 0 || sum <= budget {
			continue
		}
		if !strict {
			s.violations++
		} else if s.bwErr == nil {
			s.bwErr = e.bandwidthError(v, u, sum) // groups ascend by receiver: the first is the lowest
		}
	}
}

// bandwidthError builds a strict-mode violation. Senders ascend within a
// shard and each shard keeps its first, so a shard's error is its lowest
// (From, To).
func (e *engine[O]) bandwidthError(v, u int32, bits int64) *BandwidthError {
	return &BandwidthError{Round: e.round, From: int(v), To: int(u), Bits: int(bits), Budget: e.budget}
}

// groupBits sums a targeted group's bit costs.
func groupBits(tg []outPacket) int64 {
	var sum int64
	for i := range tg {
		sum += int64(tg[i].p.Bits)
	}
	return sum
}

func byReceiver(a, b outPacket) int { return cmp.Compare(a.to, b.to) }
