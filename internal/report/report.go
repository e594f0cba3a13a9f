// Package report renders the benchmark harness's results as aligned text
// tables, one per paper figure or table, so cmd/chameleon-bench output can
// be compared line-by-line with the paper's plots, and writes the
// machine-readable BENCH_<experiment>.json files under one environment block.
package report

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is a titled grid of cells.
type Table struct {
	Title string
	Cols  []string
	Rows  [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint writes the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	fmt.Fprintf(w, "\n%s\n%s\n", t.Title, strings.Repeat("=", max(len(t.Title), total)))
	for i, c := range t.Cols {
		fmt.Fprintf(w, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w)
	for i := range t.Cols {
		fmt.Fprintf(w, "%s  ", strings.Repeat("-", widths[i]))
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) {
				fmt.Fprintf(w, "%-*s  ", widths[i], c)
			} else {
				fmt.Fprintf(w, "%s  ", c)
			}
		}
		fmt.Fprintln(w)
	}
}

// Ns formats a duration as nanoseconds with unit.
func Ns(d time.Duration) string {
	return fmt.Sprintf("%dns", d.Nanoseconds())
}

// NsF formats a float nanosecond latency.
func NsF(ns float64) string {
	return fmt.Sprintf("%.0fns", ns)
}

// MB formats a byte count in mebibytes.
func MB(b int) string {
	return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
}

// Mops formats a throughput in million operations per second.
func Mops(opsPerSec float64) string {
	return fmt.Sprintf("%.2fMops", opsPerSec/1e6)
}

// F2 formats a float with two decimals.
func F2(x float64) string { return fmt.Sprintf("%.2f", x) }

// FprintCSV writes the table as RFC-4180-ish CSV with a leading comment line
// carrying the title, for plotting pipelines.
func (t *Table) FprintCSV(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	writeCSVRow(w, t.Cols)
	for _, r := range t.Rows {
		writeCSVRow(w, r)
	}
}

func writeCSVRow(w io.Writer, cells []string) {
	for i, c := range cells {
		if i > 0 {
			io.WriteString(w, ",")
		}
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		io.WriteString(w, c)
	}
	io.WriteString(w, "\n")
}
