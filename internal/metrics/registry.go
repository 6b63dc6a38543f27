package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the runtime metrics registry: concurrency-safe labeled
// counters, gauge functions, and latency histograms (hist.go),
// snapshot-able in a deterministic order and rendered as Prometheus text
// exposition: GET /v1/metrics, the registry's one rendering. Unlike the
// experiment-side Summary — which lives on a single goroutine inside the
// simulator — everything here is atomic, because declnetd's HTTP
// handlers scrape while the simulation mutates.
//
// A nil *Registry is valid everywhere and hands out nil instruments whose
// methods are no-ops, so instrumented code needs no branches: the
// "registry-disabled" arm of experiment E12 is literally a nil pointer.

// Label is one name=value metric dimension.
type Label struct{ Name, Value string }

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// RCounter is a monotonically increasing atomic counter instrument.
type RCounter struct{ v atomic.Uint64 }

// Inc adds one. Nil-safe.
func (c *RCounter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add increments by n. Nil-safe.
func (c *RCounter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count. Nil-safe.
func (c *RCounter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// metricType enumerates instrument families.
type metricType int

const (
	typeCounter metricType = iota
	typeGaugeFunc
	typeHistogram
)

var typeNames = map[metricType]string{
	typeCounter: "counter", typeGaugeFunc: "gauge", typeHistogram: "histogram",
}

// child is one labeled instrument inside a family.
type child struct {
	labels  []Label
	key     string
	counter *RCounter
	fn      func() float64
	hist    *Hist
}

// family groups every child sharing a metric name.
type family struct {
	name     string
	help     string
	typ      metricType
	children map[string]*child
}

// Registry is a concurrency-safe labeled metric registry. Get-or-create
// lookups (Counter, Histogram) take the registry lock — cache the
// returned instrument on hot paths. The zero value is not ready; use
// NewRegistry. A nil *Registry hands out nil (no-op) instruments.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "=" + l.Value
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// get returns the named child, creating family and child as needed. It
// panics when the same name is reused with a different instrument type —
// a programming error worth failing loudly on.
func (r *Registry) get(name, help string, typ metricType, labels []Label) *child {
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, typ: typ, children: make(map[string]*child)}
		r.families[name] = fam
	} else if fam.typ != typ {
		panic(fmt.Sprintf("metrics: %q registered as %s, requested as %s",
			name, typeNames[fam.typ], typeNames[typ]))
	}
	key := labelKey(labels)
	ch, ok := fam.children[key]
	if !ok {
		ch = &child{labels: append([]Label(nil), labels...), key: key}
		switch typ {
		case typeCounter:
			ch.counter = &RCounter{}
		case typeHistogram:
			ch.hist = &Hist{}
		}
		fam.children[key] = ch
	}
	return ch
}

// Counter returns the labeled counter, creating it on first use. Nil-safe.
func (r *Registry) Counter(name, help string, labels ...Label) *RCounter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.get(name, help, typeCounter, labels).counter
}

// Histogram returns the labeled latency histogram, creating it on first
// use. Nil-safe.
func (r *Registry) Histogram(name, help string, labels ...Label) *Hist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.get(name, help, typeHistogram, labels).hist
}

// GaugeFunc registers (or replaces) a gauge whose value is sampled from
// fn at snapshot time. fn runs while the snapshot caller holds whatever
// lock guards the sampled state — declnetd's /v1/metrics handler holds
// the world mutex, so fn may read simulation state. Nil-safe.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ch := r.get(name, help, typeGaugeFunc, labels)
	ch.fn = fn
}

// Sample is one observed value in a deterministic snapshot.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64 // a histogram's sample count
	// Hist is a histogram sample's snapshot; zero for other families.
	Hist HistSnap
}

// Snapshot returns every instrument's current value, sorted by metric
// name then label key — byte-stable across runs for golden tests.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []Sample
	for _, n := range names {
		fam := r.families[n]
		keys := make([]string, 0, len(fam.children))
		for k := range fam.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ch := fam.children[k]
			s := Sample{Name: n, Labels: ch.labels}
			switch fam.typ {
			case typeCounter:
				s.Value = float64(ch.counter.Value())
			case typeGaugeFunc:
				if ch.fn != nil {
					s.Value = ch.fn()
				}
			case typeHistogram:
				s.Hist = ch.hist.Snapshot()
				s.Value = float64(s.Hist.Count)
			}
			out = append(out, s)
		}
	}
	return out
}

// formatLabels renders {a="x",b="y"} with names sorted, or "".
func formatLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = fmt.Sprintf("%s=%q", l.Name, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatValue renders a float the way Prometheus text exposition expects.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4), deterministically ordered, without timestamps.
// Gauge functions are evaluated during the write; callers synchronizing
// sampled state must hold its lock around this call. Nil-safe.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	samples := r.Snapshot()
	r.mu.Lock()
	fams := make(map[string]*family, len(r.families))
	for n, f := range r.families {
		fams[n] = f
	}
	r.mu.Unlock()
	var lastName string
	for _, s := range samples {
		fam := fams[s.Name]
		if s.Name != lastName {
			if fam.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, fam.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, typeNames[fam.typ]); err != nil {
				return err
			}
			lastName = s.Name
		}
		if fam.typ == typeHistogram {
			// Buckets 0..26 print as their upper bounds in seconds; the
			// overflow bucket (from ~17.18s up) exists only inside +Inf.
			var cum uint64
			for i := 0; i < histBuckets-1; i++ {
				cum += s.Hist.Counts[i]
				le := formatValue(float64(bucketUpper(i)) / 1e9)
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.Name,
					formatLabels(s.Labels, L("le", le)), cum); err != nil {
					return err
				}
			}
			total := cum + s.Hist.Counts[histBuckets-1]
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.Name,
				formatLabels(s.Labels, L("le", "+Inf")), total); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.Name,
				formatLabels(s.Labels), formatValue(float64(s.Hist.SumNS)/1e9)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", s.Name,
				formatLabels(s.Labels), total); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", s.Name,
			formatLabels(s.Labels), formatValue(s.Value)); err != nil {
			return err
		}
	}
	return nil
}
