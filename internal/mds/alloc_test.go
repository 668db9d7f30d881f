package mds_test

import (
	"runtime"
	"testing"

	"arbods/internal/congest"
	"arbods/internal/gen"
	"arbods/internal/mds"
)

// TestSolveMemoryCeiling is the solve-level byte gate beside the engine's
// TestMemoryCeiling: a transient Theorem 1.1 solve (α=3, ε=0.2) of a
// 2·10⁵-node forest3 with uniform weights may allocate at most 320 bytes
// per node (runtime.MemStats.TotalAlloc). Per node, the run pays the
// engine's two outbox heads, flags and interface slot, the 88-byte proc,
// its degree-sized packing cache (one arena block of DegreeSum()
// float64s), its 32-byte Output and its share of the report: about 256
// bytes. A proc that carried the Lemma 4.6 extension state (56 bytes)
// together with outbox slabs that kept second copies of lone sends would
// take the solve past the ceiling.
func TestSolveMemoryCeiling(t *testing.T) {
	const n, ceiling = 200_000, 320
	g := gen.UniformWeights(gen.ForestUnion(n, 3, 1).G, 100, 1)
	for _, workers := range []int{1, 2} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := mds.WeightedDeterministic(g, 3, 0.2, congest.WithSeed(1), congest.WithWorkers(workers))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.AllDominated {
			t.Fatalf("workers=%d: the solve left nodes undominated", workers)
		}
		perNode := float64(after.TotalAlloc-before.TotalAlloc) / n
		t.Logf("workers=%d bytes allocated per node: %.0f", workers, perNode)
		if perNode > ceiling {
			t.Errorf("workers=%d transient solve allocates %.0f bytes per node (ceiling %d): a per-node buffer crept back into the proc or the engine", workers, perNode, ceiling)
		}
	}
}
