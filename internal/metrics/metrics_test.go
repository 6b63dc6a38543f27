package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// Property: quantile is monotone nondecreasing in q.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(vals []float64, q1, q2 float64) bool {
		var h Summary
		for _, v := range vals {
			h.Observe(math.Abs(v))
		}
		a, b := math.Mod(math.Abs(q1), 1), math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		return h.Quantile(a) <= h.Quantile(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c RCounter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Counter = %d, want 5", c.Value())
	}
}

// TestCounterConcurrent hammers Inc/Add/Value from many goroutines; under
// `go test -race` this proves RCounter is safe to share between the
// parallel experiment sweep and health-monitor goroutines.
func TestCounterConcurrent(t *testing.T) {
	var c RCounter
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				c.Add(1)
				_ = c.Value()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker*2 {
		t.Fatalf("Counter = %d, want %d", got, workers*perWorker*2)
	}
}

func TestSummaryExactQuantiles(t *testing.T) {
	var s Summary
	for i := 100; i >= 1; i-- {
		s.Observe(float64(i))
	}
	if s.Count() != 100 {
		t.Fatalf("Count = %d", s.Count())
	}
	if got := s.Quantile(0.5); got != 50 {
		t.Fatalf("median = %v, want 50", got)
	}
	if s.Min() != 1 || s.Max() != 100 {
		t.Fatalf("extremes = %v,%v", s.Min(), s.Max())
	}
	if got := s.Mean(); got != 50.5 {
		t.Fatalf("Mean = %v, want 50.5", got)
	}
}

func TestSummaryObserveAfterQuantile(t *testing.T) {
	var s Summary
	s.Observe(2)
	_ = s.Quantile(0.5)
	s.Observe(1) // must re-sort on next query
	if got := s.Min(); got != 1 {
		t.Fatalf("Min after interleaved Observe = %v, want 1", got)
	}
}

func TestSummaryStddev(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if got := s.Stddev(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Stddev = %v, want 2", got)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Quantile(0.5) != 0 || s.Stddev() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestTableText(t *testing.T) {
	tb := Table{Title: "demo", Columns: []string{"name", "value"}}
	tb.AddRow("alpha", 3.14159)
	tb.AddRow("b", 42)
	tb.Notes = append(tb.Notes, "hello")
	out := tb.Text()
	for _, want := range []string{"demo", "alpha", "3.14", "42", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("Text output missing %q:\n%s", want, out)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := Table{Title: "demo", Columns: []string{"a", "b"}}
	tb.AddRow(1, 2)
	out := tb.Markdown()
	if !strings.Contains(out, "| a | b |") || !strings.Contains(out, "| 1 | 2 |") {
		t.Fatalf("Markdown output malformed:\n%s", out)
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := Table{Columns: []string{"v"}}
	tb.AddRow(1000.0)
	tb.AddRow(123.456)
	tb.AddRow(1.23456)
	tb.AddRow(0.000123)
	rows := tb.Rows
	if rows[0][0] != "1000" {
		t.Errorf("integral float = %q, want 1000", rows[0][0])
	}
	if rows[1][0] != "123.5" {
		t.Errorf("large float = %q, want 123.5", rows[1][0])
	}
	if rows[2][0] != "1.23" {
		t.Errorf("unit float = %q, want 1.23", rows[2][0])
	}
	if rows[3][0] != "0.000123" {
		t.Errorf("small float = %q, want 0.000123", rows[3][0])
	}
}
