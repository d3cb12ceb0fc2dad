// Package stats provides the small numeric and table-rendering helpers the
// experiment harness uses to report results.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary condenses a sample.
type Summary struct {
	N                      int
	Min, Median, Mean, Max float64
}

// Summarize computes a Summary; an empty sample yields zeros.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	total := 0.0
	for _, x := range xs {
		total += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = total / float64(len(xs))
	s.Median = Median(xs)
	return s
}

// Median returns the sample median (average of middle pair for even n, 0
// for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	m := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[m]
	}
	return (cp[m-1] + cp[m]) / 2
}

// MedianInt is Median over ints, rounded to nearest.
func MedianInt(xs []int) int {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return int(math.Round(Median(fs)))
}

// Table is a titled grid of cells rendered as aligned ASCII or CSV.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes are printed under the table.
	Notes []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; missing cells render empty, extras are kept.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render returns the aligned ASCII form.
func (t *Table) Render() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i := range t.Columns {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	var rule []string
	for _, w := range width {
		rule = append(rule, strings.Repeat("-", w))
	}
	writeRow(rule)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV returns the comma-separated form (no notes, title as comment).
func (t *Table) CSV() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s\n", t.Title)
	}
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// I formats an int cell.
func I(v int) string { return fmt.Sprintf("%d", v) }

// F formats a float cell with two decimals.
func F(v float64) string { return fmt.Sprintf("%.2f", v) }

// F1 formats a float cell with one decimal.
func F1(v float64) string { return fmt.Sprintf("%.1f", v) }

// Pct formats a/b as a whole percentage cell, or "-" when b is 0.
func Pct(a, b int) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(a)/float64(b))
}
