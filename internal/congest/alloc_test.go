package congest_test

import (
	"runtime"
	"testing"

	"arbods/internal/congest"
	"arbods/internal/gen"
)

// allocGraph is the mid-size instance the allocation gate runs on: 20k
// nodes, avg degree ≈ 4, ≈ 120k routed messages per run — big enough that
// any per-node or per-message allocation regression multiplies into the
// tens of thousands and trips the ceilings below immediately.
const allocGraphN = 20_000

// TestAllocationCeiling is the allocation-regression gate (wired into CI
// next to `make bench-compare` via `make alloc-gate`). It asserts three
// ceilings with testing.AllocsPerRun:
//
//   - a run on a reused Runner must stay O(1) in n: the proc slab and the
//     proc interface slice are recycled, so only the Outputs slice and
//     the run's constant-size bookkeeping (options, engine, result
//     header) remain. The ceiling (32) tolerates runtime noise but not a
//     per-node make slipping back in.
//   - the same run under WithRecycledResult must stay at or below 15
//     allocs — the PR 4 warm-Runner mark, now with the procs slab and
//     Outputs assembly recycled too: every remaining allocation is
//     constant-sized, none scales with n or the message volume.
//   - a transient run (no Runner) additionally pays the run-scoped
//     buffers, but still nothing per message and only O(1) slices sized
//     by n — far below one alloc per node.
//
// If this test starts failing after an engine change, something in the
// step/pull/proc-construction path allocates again; see ROADMAP.md's
// allocation trajectory before raising a ceiling.
func TestAllocationCeiling(t *testing.T) {
	g := gen.ErdosRenyi(allocGraphN, 4/float64(allocGraphN), 1).G
	// The proc slab lives outside the measured loop, like every serving
	// caller's: the factory rebuilds procs in place each run.
	slab := make([]echoProc, g.N())
	factory := func(ni congest.NodeInfo) congest.Proc[int64] {
		p := &slab[ni.ID]
		*p = echoProc{ni: ni, rounds: 2}
		return p
	}

	// The ceilings are gated at every worker count, not just the
	// sequential engine: the parallel path's warm runs must be exactly as
	// allocation-clean (each step shard pulls inboxes into one warm scratch
	// slice and appends sends into Runner-owned outbox slabs, and round
	// dispatch carries no per-run method values), so workers=4 is held to
	// the same 32/15 marks as workers=1.
	for _, workers := range []int{1, 4} {
		r := congest.NewRunner()
		run := func(opts ...congest.Option) {
			res, err := congest.Run(g, factory,
				append([]congest.Option{congest.WithSeed(1), congest.WithWorkers(workers)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if res.Messages == 0 {
				t.Fatal("no traffic routed")
			}
		}

		run(congest.WithRunner(r)) // warm the Runner's buffers once
		reused := testing.AllocsPerRun(3, func() { run(congest.WithRunner(r)) })
		t.Logf("workers=%d allocs/run on a warm Runner: %.0f", workers, reused)
		if reused > 32 {
			t.Errorf("workers=%d reused-Runner run allocates %.0f times (ceiling 32): per-node or per-message allocation crept back into the engine", workers, reused)
		}

		run(congest.WithRunner(r), congest.WithRecycledResult())
		recycled := testing.AllocsPerRun(3, func() { run(congest.WithRunner(r), congest.WithRecycledResult()) })
		t.Logf("workers=%d allocs/run on a warm Runner with recycled results: %.0f", workers, recycled)
		if recycled > 15 {
			t.Errorf("workers=%d recycled-result run allocates %.0f times (ceiling 15, the PR 4 warm mark): procs/Outputs reuse regressed", workers, recycled)
		}

		transient := testing.AllocsPerRun(3, func() { run() })
		t.Logf("workers=%d allocs/run transient: %.0f", workers, transient)
		if ceiling := float64(allocGraphN) / 100; transient > ceiling {
			t.Errorf("workers=%d transient run allocates %.0f times (ceiling %.0f = n/100): run setup is no longer slab-based", workers, transient, ceiling)
		}
		r.Close()
	}
}

// requestProc has the message shape of a Theorem 1.1 solve at its
// heaviest: round 0 broadcasts, round 1 sends one targeted request to the
// node's lowest neighbor (the τ-completion), and round 2 stops.
type requestProc struct {
	ni  congest.NodeInfo
	got int64
}

func (p *requestProc) Step(round int, in []congest.Incoming, s *congest.Sender) bool {
	p.got += int64(len(in))
	switch {
	case round == 0:
		s.Broadcast(packPing(int64(p.ni.ID)))
	case round == 1 && len(p.ni.Neighbors) > 0:
		s.Send(int(p.ni.Neighbors[0]), packPing(int64(p.ni.ID)))
	case round >= 2:
		return true
	}
	return false
}

func (p *requestProc) Output() int64 { return p.got }

// TestMemoryCeiling is the byte gate beside the allocation-count gate: a
// transient run of requestProc on a 2·10⁵-node ER graph may allocate at
// most 200 bytes per node (runtime.MemStats.TotalAlloc). Per node, a run
// pays its proc interface slot, two outbox heads, two sent flags, its
// done flag and output, and the broadcast slabs' two 24-byte slots; the
// request round adds one 32-byte targeted slot, allocated once per shard.
// Per-node traffic lists, or a targeted slab grown in append's 1.25×
// steps, would each take the run past the ceiling.
func TestMemoryCeiling(t *testing.T) {
	const n, ceiling = 200_000, 200
	g := gen.ErdosRenyi(n, 4/float64(n), 1).G
	slab := make([]requestProc, n)
	factory := func(ni congest.NodeInfo) congest.Proc[int64] {
		p := &slab[ni.ID]
		*p = requestProc{ni: ni}
		return p
	}
	for _, workers := range []int{1, 2} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := congest.Run(g, factory, congest.WithSeed(1), congest.WithWorkers(workers))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != 3 || res.Messages <= int64(g.DegreeSum()) {
			t.Fatalf("workers=%d: %d rounds, %d messages — the request round is missing", workers, res.Rounds, res.Messages)
		}
		perNode := float64(after.TotalAlloc-before.TotalAlloc) / n
		t.Logf("workers=%d bytes allocated per node: %.0f", workers, perNode)
		if perNode > ceiling {
			t.Errorf("workers=%d transient run allocates %.0f bytes per node (ceiling %d): a per-node or per-message buffer crept back into the engine", workers, perNode, ceiling)
		}
	}
}
