package experiments

import (
	"fmt"
	"strings"

	"github.com/plasma-hpc/dsmcpic/internal/core"
)

// Table is one rank sweep of the paper's evaluation (Tables II–VI, Figs.
// 10–15): a title, the rank columns, labelled rows with one value per rank
// count, and footer lines.
type Table struct {
	Title  string
	Ranks  []int
	Rows   []Row
	Footer []string

	label int    // width of the label column
	cell  string // fmt verb of one value; its width sets the rank header's
}

// Row is one labelled line of a Table.
type Row struct {
	Label string
	Vals  []float64
	// Verb overrides the table's cell verb for a derived row, such as a
	// percentage under a table of seconds.
	Verb string
}

// Row returns the values of the row with the given label, or nil.
func (t *Table) Row(label string) []float64 {
	for _, r := range t.Rows {
		if r.Label == label {
			return r.Vals
		}
	}
	return nil
}

// Table renders t: the title, the rank counts right-aligned over the
// value columns, one line per row, then the footer.
func (t *Table) Table() string {
	var b strings.Builder
	b.WriteString(t.Title + "\n")
	fmt.Fprintf(&b, "%-*s", t.label, "")
	w := len(fmt.Sprintf(t.cell, 0.0))
	for _, n := range t.Ranks {
		fmt.Fprintf(&b, "%*d", w, n)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		verb := t.cell
		if r.Verb != "" {
			verb = r.Verb
		}
		fmt.Fprintf(&b, "%-*s", t.label, r.Label)
		for _, v := range r.Vals {
			fmt.Fprintf(&b, verb, v)
		}
		b.WriteByte('\n')
	}
	for _, f := range t.Footer {
		b.WriteString(f + "\n")
	}
	return b.String()
}

// series is one row to sweep: the run at each rank count (run with its
// Ranks set) and the number read from that run's stats.
type series struct {
	label  string
	run    RunSpec
	metric func(*core.RunStats) float64
}

// sweep appends one row per series to t, one value per rank count, each
// read through the cached Run: rows that read different metrics of the
// same run share it.
func sweep(t *Table, rows ...series) (*Table, error) {
	for _, s := range rows {
		row := Row{Label: s.label}
		for _, n := range t.Ranks {
			s.run.Ranks = n
			stats, err := Run(s.run)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", s.label, n, err)
			}
			row.Vals = append(row.Vals, s.metric(stats))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// total is the modeled execution time of a run.
func total(s *core.RunStats) float64 { return s.TotalTime() }

// component reads one Table IV component's modeled time.
func component(c string) func(*core.RunStats) float64 {
	return func(s *core.RunStats) float64 { return s.ComponentTime(c) }
}

// spread returns, per column, (max-min)/min over the given rows: how
// sensitive a value is to whatever distinguishes the rows.
func spread(rows ...[]float64) []float64 {
	out := make([]float64, len(rows[0]))
	for i := range out {
		lo, hi := rows[0][i], rows[0][i]
		for _, r := range rows {
			lo, hi = min(lo, r[i]), max(hi, r[i])
		}
		if lo > 0 {
			out[i] = (hi - lo) / lo
		}
	}
	return out
}
