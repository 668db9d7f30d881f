package bench_test

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"arbods/internal/bench"
	"arbods/internal/congest"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestExperimentsGolden regenerates the full-scale tables and byte-compares
// them with EXPERIMENTS.md, the committed record of the reproduction, so a
// change that moves any table cell must commit the regenerated file. The
// claims checked at Small scale are checked here at Full scale too.
func TestExperimentsGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the full-scale sweep takes ~40 s under -race; CI runs it without")
	}
	want, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	pool := congest.NewRunnerPool(0) // GOMAXPROCS Runners
	defer pool.Close()
	tables := runAll(t, bench.Config{Seed: 1, Scale: bench.Full, Pool: pool})
	checkClaims(t, tables)
	if got := renderAll(tables); got != string(want) {
		t.Errorf("EXPERIMENTS.md differs from a fresh run; if the change is intended, regenerate it with\n"+
			"\tgo run ./cmd/mdsbench -scale full -seed 1 > EXPERIMENTS.md\nand commit it. First difference, %s",
			firstDiff(string(want), got))
	}
}

// TestAllExperimentsSmall runs the complete experiment suite at Small scale,
// sanity-checks table structure and checks the paper's claims on the cells.
func TestAllExperimentsSmall(t *testing.T) {
	tables := runAll(t, bench.Config{Seed: 1, Scale: bench.Small})
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
	}
	for _, want := range []string{"E1", "E2", "E2b", "E3", "E4", "E5", "E6a", "E6b", "E6c", "E6d", "E7", "E8", "E9a", "E9b", "E9c", "E9d", "E9e", "E10"} {
		if !ids[want] {
			t.Fatalf("missing experiment table %s", want)
		}
	}
	checkClaims(t, tables)
}

// claimTable reads the cells of one table for checkClaims.
type claimTable struct {
	t  *testing.T
	tb *bench.Table
}

func (c claimTable) cell(r int, col string) string {
	c.t.Helper()
	i := slices.Index(c.tb.Columns, col)
	if i < 0 {
		c.t.Fatalf("%s has no column %q", c.tb.ID, col)
	}
	return c.tb.Rows[r][i]
}

func (c claimTable) num(r int, col string) float64 {
	c.t.Helper()
	x, err := strconv.ParseFloat(c.cell(r, col), 64)
	if err != nil {
		c.t.Fatalf("%s row %d, column %q: %v", c.tb.ID, r+1, col, err)
	}
	return x
}

func (c claimTable) errorf(format string, args ...any) {
	c.t.Helper()
	c.t.Errorf("%s: %s\n%s", c.tb.ID, fmt.Sprintf(format, args...), c.tb.Markdown())
}

// checkClaims asserts the claims the tables reproduce on their cells, at
// whatever scale they were run. E1, E3, E8 and E10 check theirs inside the
// run (receipt verification, certified ratio ≤ bound, domination).
func checkClaims(t *testing.T, tables []*bench.Table) {
	// The experiments mark failed checks with "NO" cells; none may appear —
	// except in E9b, whose entire point is that the no-freeze ablation
	// breaks packing feasibility.
	for _, tb := range tables {
		if tb.ID != "E9b" && slices.ContainsFunc(tb.Rows, func(row []string) bool { return slices.Contains(row, "NO") }) {
			t.Errorf("table %s reports a failed check:\n%s", tb.ID, tb.Markdown())
		}
	}
	get := func(id string) claimTable {
		for _, tb := range tables {
			if tb.ID == id {
				return claimTable{t, tb}
			}
		}
		t.Fatalf("missing experiment table %s", id)
		return claimTable{}
	}

	// E2 (Theorem 1.1, O(log(Δ/α)/ε) rounds): each round increment per ×4
	// of Δ stays within ±25% of 2·log_{1+ε}4, at the table's ε = 0.25.
	e2 := get("E2")
	perX4 := 2 * math.Log(4) / math.Log(1.25)
	for r := 1; r < len(e2.tb.Rows); r++ {
		x4s := math.Log(e2.num(r, "Δ")/e2.num(r-1, "Δ")) / math.Log(4)
		if got := e2.num(r, "Δrounds (Δ ×4)") / x4s; math.Abs(got/perX4-1) > 0.25 {
			e2.errorf("row %d: %.1f rounds per ×4 of Δ, want %.1f ± 25%%", r+1, got, perX4)
		}
	}

	// E2b (Theorem 1.1): the round count does not depend on n.
	e2b := get("E2b")
	for r := range e2b.tb.Rows {
		if e2b.cell(r, "rounds (Thm 1.1)") != e2b.cell(0, "rounds (Thm 1.1)") {
			e2b.errorf("row %d: rounds change with n", r+1)
		}
	}

	// E4 (Theorem 1.2, O(t·log Δ) rounds): the Theorem 1.2 rows' rounds
	// per unit of t·⌈log₂Δ⌉ stay within a factor of 2 of each other.
	e4 := get("E4")
	var delta float64
	_, inTitle, _ := strings.Cut(e4.tb.Title, "Δ=")
	if _, err := fmt.Sscanf(inTitle, "%g)", &delta); err != nil {
		t.Fatalf("E4 title %q names no Δ: %v", e4.tb.Title, err)
	}
	lo, hi := math.Inf(1), 0.0
	for r := range e4.tb.Rows {
		tt, err := strconv.Atoi(e4.cell(r, "t"))
		if err != nil {
			continue // the Theorem 1.1 row
		}
		per := e4.num(r, "rounds") / (float64(tt) * math.Ceil(math.Log2(delta)))
		lo, hi = min(lo, per), max(hi, per)
	}
	if hi > 2*lo {
		e4.errorf("rounds per t·⌈log₂Δ⌉ range over [%.2f, %.2f], more than a factor of 2", lo, hi)
	}

	// E5 (Theorem 1.3 improves KMW06 by log Δ): for k ≥ 2 the Theorem 1.3
	// run beats the KW05-style one. Rows come in (Thm 1.3, KW05) pairs per k.
	// Its O(k²) rounds: exactly the 2 setup rounds and k phases of k+1
	// two-round iterations that γ = (Δ+1)^{1/k} and λ = 1/(Δ+1) schedule.
	e5 := get("E5")
	for r := 0; r+1 < len(e5.tb.Rows); r += 2 {
		if e5.cell(r, "algorithm") != "Thm 1.3" || e5.cell(r+1, "algorithm") != "KW05-style" {
			e5.errorf("rows %d-%d are not a (Thm 1.3, KW05-style) pair", r+1, r+2)
			continue
		}
		thm, kw := e5.num(r, "mean ratio vs LB"), e5.num(r+1, "mean ratio vs LB")
		k := e5.num(r, "k")
		if k >= 2 && thm >= kw {
			e5.errorf("k=%s: Theorem 1.3 ratio %g does not beat KW05's %g", e5.cell(r, "k"), thm, kw)
		}
		if rounds := e5.num(r, "rounds"); rounds != 2+2*k*(k+1) {
			e5.errorf("k=%s: Theorem 1.3 takes %g rounds, want 2+2k(k+1) = %g",
				e5.cell(r, "k"), rounds, 2+2*k*(k+1))
		}
	}

	// E6c (Theorem 1.4): a larger iteration budget never worsens the
	// certified ratio of the truncated runs.
	e6c := get("E6c")
	for r := 1; r < len(e6c.tb.Rows); r++ {
		if e6c.cell(r, "packing iterations") == "full schedule" {
			continue
		}
		if e6c.num(r, "certified ratio") > e6c.num(r-1, "certified ratio") {
			e6c.errorf("row %d: the certified ratio rises with more iterations", r+1)
		}
	}

	// E7 (Observation A.1): the one-round tree algorithm is within 3·OPT,
	// and on every tree at either scale it takes 2 rounds: the degree
	// exchange and the round in which each node reads it and decides.
	e7 := get("E7")
	for r := range e7.tb.Rows {
		if e7.cell(r, "algorithm") != "tree 3-approx (Obs A.1)" {
			continue
		}
		if e7.num(r, "ratio vs OPT") > 3 {
			e7.errorf("row %d: ratio vs OPT exceeds 3", r+1)
		}
		if rounds := e7.num(r, "rounds"); rounds != 2 {
			e7.errorf("row %d: Observation A.1 takes %g rounds, want 2", r+1, rounds)
		}
	}

	// E9c (the CONGEST model): no run exceeds the bandwidth budget.
	e9c := get("E9c")
	var budget float64
	_, inTitle, _ = strings.Cut(e9c.tb.Title, "(budget ")
	if _, err := fmt.Sscanf(inTitle, "%g bits)", &budget); err != nil {
		t.Fatalf("E9c title %q names no budget: %v", e9c.tb.Title, err)
	}
	for r := range e9c.tb.Rows {
		if e9c.num(r, "violations") != 0 || e9c.num(r, "peak bits/edge/round") > budget {
			e9c.errorf("row %d: exceeds the %g-bit budget", r+1, budget)
		}
	}

	// E9e (Lemma 4.7): E[c_v] ≤ γ+1, also on a run where Lemma 4.1
	// dominated at least a tenth of the nodes before the extension.
	e9e := get("E9e")
	partial := false
	for r := range e9e.tb.Rows {
		if e9e.num(r, "mean c_v") > e9e.num(r, "bound γ+1") {
			e9e.errorf("row %d: mean c_v exceeds γ+1", r+1)
		}
		covered, dom41 := e9e.num(r, "nodes covered by extension (mean per run)"), e9e.num(r, "nodes dominated by Lemma 4.1 (mean per run)")
		partial = partial || dom41 >= 0.1*(covered+dom41)
	}
	if !partial {
		e9e.errorf("no row has Lemma 4.1 dominate a tenth of the nodes, so c_v is never measured next to a partial set")
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
