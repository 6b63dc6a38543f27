package metrics

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("declnet_api_calls_total", "API calls.", L("verb", "bind"))
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	// Same name+labels must return the same instrument.
	if r.Counter("declnet_api_calls_total", "API calls.", L("verb", "bind")) != c {
		t.Fatal("counter lookup is not idempotent")
	}
	depth := 4.0
	r.GaugeFunc("declnet_queue_depth", "Queue depth.", func() float64 { return depth })
	depth = 2.5
	if s := r.Snapshot(); len(s) != 2 || s[1].Name != "declnet_queue_depth" || s[1].Value != 2.5 {
		t.Fatalf("snapshot = %+v, want the gauge sampled at 2.5", s)
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("declnet_latency_seconds", "Latency.")
	h.Record(2 * time.Millisecond)
	h.Record(200 * time.Millisecond)
	h.Record(time.Hour) // lands in the overflow bucket, exported only as +Inf
	if r.Histogram("declnet_latency_seconds", "Latency.") != h {
		t.Fatal("histogram lookup is not idempotent")
	}
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.SumNS < int64(time.Hour) {
		t.Fatalf("sum = %dns", s.SumNS)
	}
}

func TestRegistryTypeClash(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("reusing a counter name as histogram did not panic")
		}
	}()
	r.Histogram("x_total", "")
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "")
	c.Inc() // nil instrument: must not crash
	h := r.Histogram("c", "")
	h.Record(time.Second)
	r.GaugeFunc("d", "", func() float64 { return 1 })
	if r.Snapshot() != nil || c.Value() != 0 || h != nil || h.Snapshot() != (HistSnap{}) {
		t.Fatal("nil registry leaked state")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry wrote %q, err %v", sb.String(), err)
	}
}

// TestRegistryConcurrent exercises get-or-create and instrument updates
// from many goroutines while another snapshots; the -race proof that the
// declnetd scrape path may run against a live simulation.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := []string{"a_total", "b_total"}[w%2]
			for i := 0; i < 400; i++ {
				r.Counter(name, "", L("w", "x")).Inc()
				r.Histogram("h_seconds", "").Record(10 * time.Millisecond)
				if i%100 == 0 {
					r.Snapshot()
					var sb strings.Builder
					_ = r.WritePrometheus(&sb)
				}
			}
		}(w)
	}
	wg.Wait()
	total := uint64(0)
	for _, s := range r.Snapshot() {
		if strings.HasSuffix(s.Name, "_total") {
			total += uint64(s.Value)
		}
	}
	if total != 8*400 {
		t.Fatalf("counters sum to %d, want %d", total, 8*400)
	}
	if n := r.Histogram("h_seconds", "").Snapshot().Count; n != 8*400 {
		t.Fatalf("histogram holds %d samples, want %d", n, 8*400)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestPrometheusGolden pins the text exposition byte-for-byte for a
// synthetic registry covering every instrument type, so metric renames or
// ordering changes surface in review. Values are fixed — nothing here is
// wall-clock — so no masking is needed.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("declnet_api_calls_total", "Control-plane API calls by verb.",
		L("verb", "bind"), L("outcome", "ok")).Add(7)
	r.Counter("declnet_api_calls_total", "Control-plane API calls by verb.",
		L("verb", "set_permit_list"), L("outcome", "error")).Add(2)
	r.GaugeFunc("declnet_event_queue_depth", "Simulator event-queue depth.",
		func() float64 { return 12 })
	r.GaugeFunc("declnet_virtual_time_seconds", "Simulated clock.",
		func() float64 { return 42.5 })
	// The API server's tracer gauges: counts that only grow, exposed as
	// gauges over the tracer's own counters.
	r.GaugeFunc("declnet_trace_events_total", "Decision-trace events recorded.",
		func() float64 { return 7897 })
	r.GaugeFunc("declnet_trace_evicted_total", "Decision-trace events overwritten by ring wraparound.",
		func() float64 { return 0 })
	h := r.Histogram("declnet_failover_mttr_seconds",
		"Failover detect-to-rebind latency.", L("provider", "B"))
	h.Record(300 * time.Microsecond)
	h.Record(1500 * time.Millisecond)
	h.Record(1500 * time.Millisecond)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	path := filepath.Join("testdata", "prometheus.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
