package congest_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"arbods/internal/baseline"
	"arbods/internal/congest"
	"arbods/internal/gen"
	"arbods/internal/graph"
	"arbods/internal/mds"
	"arbods/internal/orient"
)

// transcript is the part of a Result pinned against semantic drift:
// the transcript totals plus an FNV-1a hash of the full per-node output
// vector (set membership, domination, packing values, τ, c_v).
type transcript struct {
	Rounds      int
	Messages    int64
	TotalBits   int64
	MaxEdgeBits int
	OutputHash  uint64
}

// mdsTranscript summarizes a *mds.Report for pinning.
func mdsTranscript(rep *mds.Report) transcript {
	h := fnv.New64a()
	for _, o := range rep.Result.Outputs {
		writeBool(h, o.InDS)
		writeBool(h, o.InPartial)
		writeBool(h, o.InExtension)
		writeBool(h, o.Dominated)
		writeU64(h, math.Float64bits(o.Packing))
		writeU64(h, uint64(o.Tau))
		writeU64(h, uint64(o.SampledDominators))
	}
	return transcript{
		Rounds:      rep.Result.Rounds,
		Messages:    rep.Result.Messages,
		TotalBits:   rep.Result.TotalBits,
		MaxEdgeBits: rep.Result.MaxEdgeBits,
		OutputHash:  h.Sum64(),
	}
}

func orientTranscript(res *congest.Result[orient.Output]) transcript {
	h := fnv.New64a()
	for _, o := range res.Outputs {
		writeU64(h, uint64(o.Layer))
		writeU64(h, uint64(o.Estimate))
		for _, u := range o.Out {
			writeU64(h, uint64(u))
		}
		writeU64(h, ^uint64(0)) // record separator
	}
	return transcript{
		Rounds:      res.Rounds,
		Messages:    res.Messages,
		TotalBits:   res.TotalBits,
		MaxEdgeBits: res.MaxEdgeBits,
		OutputHash:  h.Sum64(),
	}
}

func writeBool(h interface{ Write([]byte) (int, error) }, b bool) {
	if b {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}

func writeU64(h interface{ Write([]byte) (int, error) }, x uint64) {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(x >> (8 * i))
	}
	h.Write(buf[:])
}

// regressGraphs returns the fixed instances the transcripts are pinned on.
func regressGraphs() (er *graph.Graph, forest *graph.Graph) {
	return gen.ErdosRenyi(400, 0.015, 9).G, gen.RandomTree(300, 17).G
}

// goldenTranscripts pins Result{Rounds, Messages, TotalBits, MaxEdgeBits,
// Outputs} for every algorithm family at seed 5 on the regressGraphs
// instances. The values were recorded from the engine BEFORE the packed
// wire-word migration (PR 3) and must never change: the packet format is
// an engine-internal representation, not a semantic change.
var goldenTranscripts = map[string]transcript{
	"weighted-deterministic":   {Rounds: 10, Messages: 8306, TotalBits: 62598, MaxEdgeBits: 10, OutputHash: 0x1e3c4f2097caa569},
	"unweighted-deterministic": {Rounds: 8, Messages: 7942, TotalBits: 59902, MaxEdgeBits: 10, OutputHash: 0x60a6c3fc8d5b2211},
	"weighted-randomized":      {Rounds: 52, Messages: 7491, TotalBits: 49765, MaxEdgeBits: 10, OutputHash: 0xecae50ecf3b0c29e},
	"general-graphs":           {Rounds: 14, Messages: 7565, TotalBits: 50061, MaxEdgeBits: 10, OutputHash: 0x51a820b9669cfe10},
	"unknown-delta":            {Rounds: 11, Messages: 7208, TotalBits: 58172, MaxEdgeBits: 11, OutputHash: 0x1be2646e832cec9a},
	"unknown-alpha":            {Rounds: 583, Messages: 49703, TotalBits: 780181, MaxEdgeBits: 20, OutputHash: 0x98ff25897cf7f335},
	"tree-3approx":             {Rounds: 2, Messages: 598, TotalBits: 3617, MaxEdgeBits: 8, OutputHash: 0x4124365dd2a40385},
	"orient-known":             {Rounds: 29, Messages: 2386, TotalBits: 9544, MaxEdgeBits: 4, OutputHash: 0x72ae1337d51c623},
	"baseline-kw05":            {Rounds: 10, Messages: 6861, TotalBits: 32489, MaxEdgeBits: 6, OutputHash: 0x53e7272e024421ad},
	"baseline-lw":              {Rounds: 10, Messages: 2550, TotalBits: 10200, MaxEdgeBits: 4, OutputHash: 0xcfc98a169deae31d},
	"baseline-lrg":             {Rounds: 47, Messages: 37569, TotalBits: 242140, MaxEdgeBits: 9, OutputHash: 0xec80b1239d32b9b5},
}

// runTranscripts executes all 11 algorithm families on the pinned
// instances at seed 5 with the given extra simulator options (worker
// count, a shared Runner, …) appended to every run.
func runTranscripts(t *testing.T, extra ...congest.Option) map[string]transcript {
	t.Helper()
	er, forest := regressGraphs()
	const seed = 5
	opts := append([]congest.Option{congest.WithSeed(seed)}, extra...)
	got := make(map[string]transcript)

	wd, err := mds.WeightedDeterministic(er, 3, 0.25, opts...)
	if err != nil {
		t.Fatal(err)
	}
	got["weighted-deterministic"] = mdsTranscript(wd)

	uw, err := mds.UnweightedDeterministic(er, 3, 0.25, opts...)
	if err != nil {
		t.Fatal(err)
	}
	got["unweighted-deterministic"] = mdsTranscript(uw)

	wr, err := mds.WeightedRandomized(er, 3, 2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	got["weighted-randomized"] = mdsTranscript(wr)

	gg, err := mds.GeneralGraphs(er, 2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	got["general-graphs"] = mdsTranscript(gg)

	ud, err := mds.UnknownDelta(er, 3, 0.25, opts...)
	if err != nil {
		t.Fatal(err)
	}
	got["unknown-delta"] = mdsTranscript(ud)

	ua, err := mds.UnknownAlpha(er, 0.25, opts...)
	if err != nil {
		t.Fatal(err)
	}
	got["unknown-alpha"] = mdsTranscript(ua)

	tr, err := mds.TreeThreeApprox(forest, opts...)
	if err != nil {
		t.Fatal(err)
	}
	got["tree-3approx"] = mdsTranscript(tr)

	or, err := orient.Run(er, 3, 0.5, opts...)
	if err != nil {
		t.Fatal(err)
	}
	got["orient-known"] = orientTranscript(or)

	kw, _, err := baseline.KW05(er, 2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	got["baseline-kw05"] = mdsTranscript(kw)

	lw, err := baseline.LWDeterministic(er, opts...)
	if err != nil {
		t.Fatal(err)
	}
	got["baseline-lw"] = mdsTranscript(lw)

	lrg, err := baseline.LRGRandomized(er, opts...)
	if err != nil {
		t.Fatal(err)
	}
	got["baseline-lrg"] = mdsTranscript(lrg)

	return got
}

// compareTranscripts fails the test for every family whose transcript in
// got differs from want.
func compareTranscripts(t *testing.T, label string, want, got map[string]transcript) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d families ran, want %d", label, len(got), len(want))
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s: %s transcript diverged:\n got %+v\nwant %+v", label, name, g, w)
		}
	}
}

// TestTranscriptEquivalence guards the engine's internal representation
// against silent semantic drift: for a fixed seed, every algorithm's
// transcript (rounds, message count, bit volume, max per-edge load, and
// the full output vector) must match the values recorded before the
// packed wire-word migration (PR 3) — and, since the arena engine, the
// same goldens also pin the flat-CSR-inbox/Runner rewrite.
func TestTranscriptEquivalence(t *testing.T) {
	got := runTranscripts(t)
	if len(goldenTranscripts) == 0 {
		for name, tr := range got {
			t.Logf("%q: {Rounds: %d, Messages: %d, TotalBits: %d, MaxEdgeBits: %d, OutputHash: 0x%x},",
				name, tr.Rounds, tr.Messages, tr.TotalBits, tr.MaxEdgeBits, tr.OutputHash)
		}
		t.Fatal("goldenTranscripts is empty — paste the logged values above")
	}
	for name, want := range goldenTranscripts {
		tr, ok := got[name]
		if !ok {
			t.Errorf("%s: algorithm not exercised", name)
			continue
		}
		if tr != want {
			t.Errorf("%s transcript drifted:\n got %+v\nwant %+v", name, tr, want)
		}
	}
	for name := range got {
		if _, ok := goldenTranscripts[name]; !ok {
			t.Errorf("%s: missing golden entry", name)
		}
	}
}

// TestTranscriptWorkerInvariance runs all 11 algorithm families with the
// sequential engine and with the sharded parallel engine (flat CSR
// inboxes) and requires identical transcripts — the whole-library version
// of TestWorkerCountInvariance's synthetic proc.
func TestTranscriptWorkerInvariance(t *testing.T) {
	seq := runTranscripts(t, congest.WithWorkers(1))
	compareTranscripts(t, "goldens vs workers=1", goldenTranscripts, seq)
	for _, workers := range []int{3, runtime.GOMAXPROCS(0) + 1} {
		par := runTranscripts(t, congest.WithWorkers(workers))
		compareTranscripts(t, fmt.Sprintf("workers=%d", workers), seq, par)
	}
}

// TestTranscriptRunnerReuse runs all 11 families back to back on ONE
// shared Runner — arenas, flat inboxes, worker pool, and outbox records
// recycled across runs and across the two pinned graphs — and requires
// every transcript to match the transient-state goldens. Any state leaking
// from one run into the next (stale inbox views, un-reset arena memory,
// surviving done flags) would show up here.
func TestTranscriptRunnerReuse(t *testing.T) {
	r := congest.NewRunner()
	defer r.Close()
	for pass := 1; pass <= 2; pass++ {
		got := runTranscripts(t, congest.WithRunner(r))
		compareTranscripts(t, fmt.Sprintf("runner pass %d", pass), goldenTranscripts, got)
	}
	// And once more sequentially, so the reuse path is covered for both
	// engine variants.
	got := runTranscripts(t, congest.WithRunner(r), congest.WithWorkers(1))
	compareTranscripts(t, "runner workers=1", goldenTranscripts, got)
}
