package bench_test

import (
	"strings"
	"testing"

	"arbods/internal/bench"
)

// TestAllExperimentsSmall runs the complete experiment suite at Small scale
// and sanity-checks table structure. This is the integration test that every
// table in EXPERIMENTS.md flows through.
func TestAllExperimentsSmall(t *testing.T) {
	tables, err := bench.RunAll(bench.Config{Seed: 1, Scale: bench.Small})
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	for _, tb := range tables {
		if tb.ID == "" || tb.Title == "" || tb.PaperRef == "" {
			t.Fatalf("table missing metadata: %+v", tb)
		}
		if ids[tb.ID] {
			t.Fatalf("duplicate table ID %s", tb.ID)
		}
		ids[tb.ID] = true
		if len(tb.Rows) == 0 {
			t.Fatalf("table %s has no rows", tb.ID)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Fatalf("table %s: row width %d != %d columns", tb.ID, len(row), len(tb.Columns))
			}
		}
		// The harness marks failed checks with "NO" cells; none may appear —
		// except in E9b, whose entire point is that the no-freeze ablation
		// breaks packing feasibility.
		if tb.ID != "E9b" {
			for _, row := range tb.Rows {
				for _, cell := range row {
					if cell == "NO" {
						t.Fatalf("table %s reports a failed check:\n%s", tb.ID, tb.Markdown())
					}
				}
			}
		}
	}
	for _, want := range []string{"E1", "E2", "E2b", "E3", "E4", "E5", "E6a", "E6b", "E6c", "E6d", "E7", "E8", "E9a", "E9b", "E9c", "E9d", "E9e", "E10"} {
		if !ids[want] {
			t.Fatalf("missing experiment table %s", want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &bench.Table{
		ID:       "T",
		Title:    "demo",
		PaperRef: "nowhere",
		Columns:  []string{"a", "b"},
		Notes:    []string{"a note"},
	}
	tb.AddRow("1", "x,y") // comma forces CSV quoting
	tb.AddRow("2")        // short row gets padded
	tb.AddRow("|S|", "z") // a pipe must not split its markdown cell
	md := tb.Markdown()
	if !strings.Contains(md, "| a") || !strings.Contains(md, "a note") {
		t.Fatalf("markdown malformed:\n%s", md)
	}
	for _, line := range strings.Split(md, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		// Every table line has the same width and three unescaped pipes.
		if n := strings.Count(line, "|") - strings.Count(line, `\|`); n != 3 || len(line) != len("| a     | b   |") {
			t.Fatalf("markdown line %q: %d cell separators, want 3, and width %d, want %d:\n%s", line, n, len(line), len("| a     | b   |"), md)
		}
	}
	if !strings.Contains(md, `| \|S\| | z   |`) {
		t.Fatalf("pipe cell not escaped:\n%s", md)
	}
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y"`) || !strings.Contains(csv, "\n|S|,z\n") {
		t.Fatalf("csv quoting broken:\n%s", csv)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv has %d lines, want 4", len(lines))
	}
}

// TestE9bDemonstratesCollapse pins the ablation's point: the no-freeze
// variant must actually break packing feasibility on a non-trivial
// instance (otherwise the ablation shows nothing).
func TestE9bDemonstratesCollapse(t *testing.T) {
	tables, err := bench.E9Ablations(bench.Config{Seed: 3, Scale: bench.Small})
	if err != nil {
		t.Fatal(err)
	}
	var e9b *bench.Table
	for _, tb := range tables {
		if tb.ID == "E9b" {
			e9b = tb
		}
	}
	if e9b == nil {
		t.Fatal("E9b missing")
	}
	// Row 0 is the paper variant (feasible), row 1 the ablation. The
	// ablation's feasibility column should read "NO" on this workload.
	if e9b.Rows[0][1] != "yes" {
		t.Fatalf("paper variant infeasible?\n%s", e9b.Markdown())
	}
	if e9b.Rows[1][1] != "NO" {
		t.Logf("note: no-freeze stayed feasible on this instance:\n%s", e9b.Markdown())
	}
}
