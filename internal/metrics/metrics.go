// Package metrics provides the measurement primitives of the experiment
// harness — exact-quantile summaries and the result tables experiments
// print — the runtime metrics registry declnetd exports (registry.go),
// and the latency histogram it shares with the SLO plane (hist.go).
//
// The harness side favors clarity over raw speed; the simulator's
// bottleneck is the fluid-flow solver, not metrics.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary computes exact order statistics over a small sample set. It
// stores every sample: for experiment outputs, not hot paths. The zero
// value is ready.
type Summary struct {
	samples []float64
	sorted  bool
}

// Observe records one sample.
func (s *Summary) Observe(v float64) {
	s.samples = append(s.samples, v)
	s.sorted = false
}

// Count returns the number of samples.
func (s *Summary) Count() int { return len(s.samples) }

// Mean returns the arithmetic mean, or 0 when empty.
func (s *Summary) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.samples {
		sum += v
	}
	return sum / float64(len(s.samples))
}

// Quantile returns the exact q-quantile using the nearest-rank method,
// or 0 when empty.
func (s *Summary) Quantile(q float64) float64 {
	if len(s.samples) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
	if q <= 0 {
		return s.samples[0]
	}
	if q >= 1 {
		return s.samples[len(s.samples)-1]
	}
	rank := int(math.Ceil(q*float64(len(s.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s.samples[rank]
}

// Min and Max return exact extremes, or 0 when empty.
func (s *Summary) Min() float64 { return s.Quantile(0) }
func (s *Summary) Max() float64 { return s.Quantile(1) }

// Stddev returns the population standard deviation, or 0 when empty.
func (s *Summary) Stddev() float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, v := range s.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Table is a simple rows-and-columns result container that every
// experiment returns; it renders as aligned text or GitHub markdown.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends one row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNotef appends a formatted footnote to the table. Experiments use it
// for run metadata such as solver-cost counters.
func (t *Table) AddNotef(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e12:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// Text renders the table as aligned plain text.
func (t *Table) Text() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n_%s_\n", n)
	}
	return b.String()
}
