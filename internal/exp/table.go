package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// WriteBenchJSON writes an experiment's rows as its BENCH_*.json
// artifact: an indented JSON array and a final newline.
func WriteBenchJSON(path string, rows any) error {
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Table is a formatted experiment result: headers, rows, and the
// paper claim being checked.
type Table struct {
	ID         string   // experiment id, e.g. "E1"
	Title      string   // short experiment title
	PaperClaim string   // what the paper's figure/theorem predicts
	Headers    []string // column headers
	Rows       [][]string
	Notes      []string // free-form observations appended after rows
	Pass       bool     // whether the measured shape matches the claim
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row built from values via %v.
func (t *Table) AddRowf(values ...interface{}) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = fmt.Sprintf("%.4g", x)
		default:
			cells[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, cells)
}

// Note appends a free-form note line.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	status := "PASS"
	if !t.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "== %s: %s [%s]\n", t.ID, t.Title, status)
	if t.PaperClaim != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.PaperClaim)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) && len(c) < widths[i] {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
