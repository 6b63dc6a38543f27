package metrics

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestBucketGeometry(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{255, 0},
		{256, 1},
		{511, 1},
		{512, 2},
		{time.Microsecond, 2}, // 1000ns in [512, 1024)
		{time.Hour, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	for i := 1; i < histBuckets; i++ {
		if bucketLower(i) != bucketUpper(i-1) {
			t.Errorf("bucket %d: lower %v != prev upper %v", i, bucketLower(i), bucketUpper(i-1))
		}
	}
}

func TestHistQuantileAndMean(t *testing.T) {
	var h Hist
	// 99 fast samples, 1 slow: p50 sits in the fast bucket, p99 (ceil
	// semantics) still fast, p100 reaches the slow one.
	for i := 0; i < 99; i++ {
		h.Record(300) // bucket 1, upper 512ns
	}
	h.Record(time.Millisecond)
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if got := s.Quantile(0.50); got != 512 {
		t.Errorf("p50 = %v, want 512ns", got)
	}
	if got := s.Quantile(0.99); got != 512 {
		t.Errorf("p99 = %v, want 512ns (ceil(0.99*100)=99 <= 99 fast samples)", got)
	}
	if got := s.Quantile(1.0); got < time.Millisecond {
		t.Errorf("p100 = %v, want >= 1ms", got)
	}
	if got := s.CountOver(time.Microsecond); got != 1 {
		t.Errorf("CountOver(1us) = %d, want 1", got)
	}
	mean := s.Mean()
	if mean < 300 || mean > 20*time.Microsecond {
		t.Errorf("mean = %v out of plausible range", mean)
	}
	if (HistSnap{}).Quantile(0.99) != 0 || (HistSnap{}).Mean() != 0 {
		t.Error("empty snapshot quantile/mean must be zero")
	}
}

func TestHistMergeIsExact(t *testing.T) {
	var a, b, whole Hist
	for i := 0; i < 1000; i++ {
		d := time.Duration(i) * 100
		whole.Record(d)
		if i%2 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
	}
	m := a.Snapshot()
	m.Merge(b.Snapshot())
	if m != whole.Snapshot() {
		t.Error("merged striped snapshots differ from the serial histogram")
	}
}

// TestHistExposition pins how /v1/metrics prints a Hist: every bucket
// but the overflow one as a cumulative `le` line in seconds, a sample on
// a bucket's upper bound counted where bucketOf puts it (the next bucket
// up: bounds are exclusive), +Inf equal to _count, _sum in seconds, and
// a sample of 17.18s or more visible only in +Inf.
func TestHistExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x_seconds", "")
	var recorded []time.Duration
	for i := 0; i < histBuckets; i++ {
		recorded = append(recorded, bucketUpper(i))
	}
	recorded = append(recorded, 0, bucketLower(histBuckets-1), time.Minute)
	var sumNS int64
	for _, d := range recorded {
		h.Record(d)
		sumNS += int64(d)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	lines := map[string]string{}
	var les []string
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		key, val, _ := strings.Cut(line, " ")
		lines[key] = val
		if le, ok := strings.CutPrefix(key, `x_seconds_bucket{le="`); ok {
			les = append(les, strings.TrimSuffix(le, `"}`))
		}
	}
	if len(les) != histBuckets {
		t.Fatalf("%d bucket lines, want %d finite + +Inf", len(les), histBuckets)
	}
	var prev uint64
	for i, le := range les[:histBuckets-1] {
		if want := formatValue(float64(bucketUpper(i)) / 1e9); le != want {
			t.Fatalf("bucket %d le = %s, want %s", i, le, want)
		}
		got, _ := strconv.ParseUint(lines[`x_seconds_bucket{le="`+le+`"}`], 10, 64)
		var want uint64
		for _, d := range recorded {
			if bucketOf(d) <= i {
				want++
			}
		}
		if got != want {
			t.Errorf("le=%s counts %d, want %d (the samples bucketOf puts at or below bucket %d)", le, got, want, i)
		}
		if got < prev {
			t.Errorf("le=%s cumulative count %d fell below %d", le, got, prev)
		}
		prev = got
	}
	// At or over 17.18s: bucketUpper(26) == bucketLower(27), that bound
	// again, bucketUpper(27) and the minute.
	overflow := uint64(0)
	for _, d := range recorded {
		if d >= 17179869184 {
			overflow++
		}
	}
	if overflow != 4 || prev != uint64(len(recorded))-overflow {
		t.Errorf("finite buckets hold %d of %d samples, want all but the %d at or over 17.18s", prev, len(recorded), overflow)
	}
	inf, count := lines[`x_seconds_bucket{le="+Inf"}`], lines["x_seconds_count"]
	if inf != count || inf != fmt.Sprint(len(recorded)) {
		t.Errorf("+Inf = %s, _count = %s, want both %d", inf, count, len(recorded))
	}
	if sum, want := lines["x_seconds_sum"], formatValue(float64(sumNS)/1e9); sum != want {
		t.Errorf("_sum = %s, want %s (seconds)", sum, want)
	}
}
