// Package bench regenerates the paper's quantitative content as tables.
// Each experiment (E1…E10, listed by All) corresponds to a table or figure
// of the paper: the §1.1 comparison of prior work, the
// round/approximation trade-offs of Theorems 1.1–1.3, the Figure 1
// lower-bound construction with its Theorem 1.4 reduction, the Appendix A
// tree algorithm, the Remark 4.4/4.5 unknown-parameter variants, and
// ablations of the algorithms' design choices.
//
// EXPERIMENTS.md at the repository root is the stdout of
// `mdsbench -scale full -seed 1`, and TestExperimentsGolden byte-compares
// it with a fresh run; bench_test.go at the repository root exposes one
// testing.B target per experiment.
package bench

import (
	"fmt"
	"strings"
)

// Table is one rendered experiment result.
type Table struct {
	// ID is the experiment identifier, e.g. "E1".
	ID string
	// Title is a one-line description.
	Title string
	// PaperRef names the table/figure/theorem being reproduced.
	PaperRef string
	// Columns holds the header cells.
	Columns []string
	// Rows holds the data cells (each row len == len(Columns)).
	Rows [][]string
	// Notes are free-form footnotes (substitutions, caveats).
	Notes []string
}

// AddRow appends a row, padding or truncating to the column count.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "*Reproduces: %s*\n\n", t.PaperRef)
	// A raw | would end its cell early (|DS|, |S| on H), so cells print
	// it escaped and are sized by their escaped text.
	esc := func(c string) string { return strings.ReplaceAll(c, "|", `\|`) }
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(esc(c))
	}
	for _, row := range t.Rows {
		for i, c := range row {
			widths[i] = max(widths[i], len(esc(c)))
		}
	}
	writeRow := func(cells []string) {
		sb.WriteString("|")
		for i, c := range cells {
			fmt.Fprintf(&sb, " %-*s |", widths[i], esc(c))
		}
		sb.WriteString("\n")
	}
	writeRow(t.Columns)
	sb.WriteString("|")
	for _, w := range widths {
		sb.WriteString(strings.Repeat("-", w+2))
		sb.WriteString("|")
	}
	sb.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "\n> %s\n", n)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (quotes on demand).
func (t *Table) CSV() string {
	var sb strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(esc(c))
		}
		sb.WriteString("\n")
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}
