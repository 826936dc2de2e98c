package exper

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Table is a titled text table rendered with aligned columns, in the
// style of the paper's reporting.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// newTable creates a table with the given title and column headers.
func newTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// addRow appends a row; short rows are padded with empty cells.
func (t *Table) addRow(cells ...string) {
	row := make([]string, len(t.Header))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// render writes the title line and the aligned header and rows to b.
func (t *Table) render(b *bytes.Buffer) {
	if t.Title != "" {
		fmt.Fprintf(b, "%s\n", t.Title)
	}
	tw := tabwriter.NewWriter(b, 2, 4, 2, ' ', 0)
	if len(t.Header) > 0 {
		fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	}
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
}

// ftoa formats a float with the given number of decimals.
func ftoa(v float64, decimals int) string {
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

// btoa formats a bool as yes/no.
func btoa(v bool) string {
	if v {
		return "yes"
	}
	return "no"
}

// etoa formats a float in scientific notation with two decimals.
func etoa(v float64) string { return strconv.FormatFloat(v, 'e', 2, 64) }
