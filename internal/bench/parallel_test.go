package bench_test

import (
	"fmt"
	"strings"
	"testing"

	"arbods/internal/bench"
	"arbods/internal/congest"
)

// renderAll flattens every table to its committed markdown form — the
// stdout of cmd/mdsbench, of which EXPERIMENTS.md is one run — so byte
// equality here is exactly the "tables are bit-identical" contract of
// Config.Parallel.
func renderAll(tables []*bench.Table) string {
	var sb strings.Builder
	for _, t := range tables {
		sb.WriteString(t.Markdown())
		sb.WriteString("\n")
	}
	return sb.String()
}

// runAll runs every experiment in bench.All() order, as cmd/mdsbench
// does, and returns the tables.
func runAll(t *testing.T, cfg bench.Config) []*bench.Table {
	t.Helper()
	var tables []*bench.Table
	for _, e := range bench.All() {
		ts, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("bench %s: %v", e.ID, err)
		}
		tables = append(tables, ts...)
	}
	return tables
}

// TestParallelMatchesSequential runs the complete experiment suite
// sequentially and under several parallel configurations (shared
// RunnerPool, transient per-batch pools) and requires byte-identical
// rendered tables: batch scheduling must be invisible in every emitted
// number. Under -race this doubles as the concurrency test for the whole
// bench-on-RunnerPool stack.
func TestParallelMatchesSequential(t *testing.T) {
	seqRunner := congest.NewRunner()
	defer seqRunner.Close()
	seq := runAll(t, bench.Config{Seed: 1, Scale: bench.Small, Runner: seqRunner})
	want := renderAll(seq)

	t.Run("shared-pool", func(t *testing.T) {
		pool := congest.NewRunnerPool(4)
		defer pool.Close()
		par := runAll(t, bench.Config{Seed: 1, Scale: bench.Small, Parallel: 4, Pool: pool})
		if got := renderAll(par); got != want {
			t.Fatalf("Parallel=4 tables differ from the sequential sweep:\n%s", firstDiff(want, got))
		}
	})

	t.Run("transient-pools", func(t *testing.T) {
		par := runAll(t, bench.Config{Seed: 1, Scale: bench.Small, Parallel: 2})
		if got := renderAll(par); got != want {
			t.Fatalf("Parallel=2 (transient pools) tables differ from the sequential sweep:\n%s", firstDiff(want, got))
		}
	})
}

// firstDiff localizes the first differing line for a readable failure.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\nwant: %s\n got: %s", i+1, wl[i], gl[i])
		}
	}
	return "tables differ in length"
}
