package congest

// routeShard is one worker's receiver range plus its inbox arrays and
// accumulators.
//
// Delivery is CSR-style: the shard's receivers fill one flat []Incoming
// backing array in receiver order, and each inbox is a contiguous view
// into it. The array is sized at layout time by the shard's receiver
// degree sum — exactly one round of one broadcast per node — so the
// common round never grows it; only a busier round (several broadcasts
// per node) grows it by append, and a reused Runner keeps the larger
// array warm. Two flat arrays alternate by round
// parity because round r's inboxes are read while round r+1's are
// written.
type routeShard struct {
	lo, hi int // receiver range [lo, hi)

	flatA, flatB []Incoming

	// per-round result, reset by routeRange
	err *BandwidthError // strict mode: (min sender, then min receiver)
	pan *ProcPanicError // panic recovered while routing (engine fault, not user code)

	// per-run accumulators, merged by finish
	dropped     int64
	violations  int64
	maxEdgeBits int

	_ [24]byte // round the live fields up to a line boundary
	_ linePad  // keep adjacent shards' hot fields off shared cache lines
}

// routeRange fills the inboxes of shard w's receivers by pulling: each
// receiver walks its own sorted neighbor list and appends, per neighbor,
// that neighbor's broadcasts plus the targeted sends addressed to it,
// interleaved back into send order. Neighbors come in ascending ID order,
// so every inbox is in exact (sender ID, send index) order and Idx is just
// the walk's loop index — bit-identical at every worker count and shard
// layout, with every write landing in this shard's own memory.
//
// The walk also does the per-directed-edge bit accounting: budget applies
// per edge (v, u), so all of v's messages to u this round share one B-bit
// slot and their sizes sum. A terminated receiver gets nothing delivered;
// its traffic only counts toward its edges' bits and the dropped total.
func (e *engine[O]) routeRange(w int) {
	s := &e.routes[w]
	s.err, s.pan = nil, nil
	// Routing executes no user code, so a panic here is an engine bug (or
	// an injected fault) — still recovered, on the same contract as the
	// step phase: the run fails with ErrProcPanic, the process survives,
	// and the Runner is quarantined.
	defer func() {
		if v := recover(); v != nil {
			s.pan = newProcPanic(e.round, -1, v)
		}
	}()
	flat := &s.flatA
	if e.round&1 == 1 {
		flat = &s.flatB
	}
	dst := (*flat)[:0]
	strict := e.cfg.mode == Congest
	budget := int64(e.budget)
	maxEdge := int64(s.maxEdgeBits)
	var dropped, violations int64
	for u := s.lo; u < s.hi; u++ {
		u32 := int32(u)
		deliver := !e.done[u]
		start := len(dst)
		for i, v := range e.g.Neighbors(u) {
			if !e.sent[v] {
				continue
			}
			ob := &e.outs[v]
			var sum, msgs int64
			switch {
			case ob.nbc == 1 && ob.ntg == 0:
				sum, msgs = int64(ob.first.Bits), 1
				if deliver {
					dst = append(dst, Incoming{From: v, Idx: int32(i), P: ob.first})
				}
			default:
				dst, sum, msgs = pull(dst, &e.lists[v], v, int32(i), u32, deliver)
			}
			if !deliver {
				dropped += msgs
			}
			if sum > maxEdge {
				maxEdge = sum
			}
			if budget > 0 && sum > budget {
				if !strict {
					violations++
				} else if s.err == nil || v < int32(s.err.From) {
					// Receivers ascend, so the first violation seen for a
					// sender is its lowest receiver.
					s.err = &BandwidthError{Round: e.round, From: int(v), To: u, Bits: int(sum), Budget: int(budget)}
				}
			}
		}
		e.next[u] = dst[start:len(dst):len(dst)]
	}
	*flat = dst // keep a grown array warm for the next round of this parity
	s.dropped += dropped
	s.violations += violations
	s.maxEdgeBits = int(maxEdge)
}

// pull handles a sender with more than one broadcast or any targeted
// send: it finds the targeted sends addressed to u (grouped by receiver in
// the step phase) and interleaves them with v's broadcasts back into send
// order, appending to dst when deliver is set. It returns the edge's
// message count and bit sum either way. i is v's position in u's
// neighbor list.
func pull(dst []Incoming, l *outList, v, i, u int32, deliver bool) ([]Incoming, int64, int64) {
	bc, tg := l.bc, l.tg
	var sum, msgs int64
	k := 0 // next broadcast
	take := func(p Packet) {
		sum += int64(p.Bits)
		msgs++
		if deliver {
			dst = append(dst, Incoming{From: v, Idx: i, P: p})
		}
	}
	for j := groupStart(tg, u); j < len(tg) && tg[j].to == u; j++ {
		for ; k < int(tg[j].before); k++ {
			take(bc[k])
		}
		take(tg[j].p)
	}
	for ; k < len(bc); k++ {
		take(bc[k])
	}
	return dst, sum, msgs
}

// groupStart returns the index of the first targeted send in tg (grouped
// by receiver) addressed to u or above.
func groupStart(tg []outPacket, u int32) int {
	lo, hi := 0, len(tg)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if tg[m].to < u {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
