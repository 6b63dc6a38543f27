package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"declnet"
)

func testLayout(t *testing.T) *layout {
	t.Helper()
	lay, err := newLayout(smokeSpec)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

func TestTraceIsAFunctionOfTheSeed(t *testing.T) {
	lay := testLayout(t)
	hash := func(wl Workload, seed int64, worker int) string {
		w := newWorkers(wl, lay, newModel(lay), seed, make([]Executor, nWorkers))
		return traceHash(w[worker].src, 4096)
	}
	for _, wl := range workloads {
		for worker := 0; worker < nWorkers; worker++ {
			a, b, c := hash(wl, 1, worker), hash(wl, 1, worker), hash(wl, 2, worker)
			if a != b {
				t.Errorf("%s worker %d: same seed, different traces", wl.Name, worker)
			}
			// The noisy tenant's loop is the same at every seed.
			if storm := wl.Storm && worker == 1; a == c && !storm {
				t.Errorf("%s worker %d: seeds 1 and 2 give the same trace", wl.Name, worker)
			}
		}
	}
	if hash(workloads[0], 1, 0) == hash(workloads[0], 1, 1) {
		t.Error("both workers draw the same trace")
	}
}

// The generator must not be able to read the clock: its source imports
// neither time nor anything that measures.
func TestGeneratorCannotReadTheClock(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "gen.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{`"crypto/sha256"`: true, `"encoding/binary"`: true, `"encoding/hex"`: true,
		`"math/rand"`: true, `"declnet/internal/workload"`: true}
	for _, imp := range f.Imports {
		if !allowed[imp.Path.Value] {
			t.Errorf("gen.go imports %s", imp.Path.Value)
		}
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {15, 0.5}, {20, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g (beyond: %d)", c.n, got, c.want, beyond(c.n, c.want))
		}
	}
	sorted := make([]time.Duration, 1000)
	for i := range sorted {
		sorted[i] = time.Duration(i + 1)
	}
	if got := quantile(sorted, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", got)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// gives [3.5, 24.0, 160.0].
	q1, med, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || med != 24 || q3 != 160 {
		t.Errorf("quartiles = %g, %g, %g; want 3.5, 24, 160", q1, med, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) gives [10.0, 20.0, 40.0].
	q1, med, q3 = quartiles([]float64{10, 20, 40})
	if q1 != 10 || med != 20 || q3 != 40 {
		t.Errorf("quartiles of three = %g, %g, %g; want 10, 20, 40", q1, med, q3)
	}
}

func TestOpenClockRule(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	// Idle at the due time, woken 80µs late: timed from the send.
	start, late := openClock(at(100), at(50), at(100.08))
	if !start.Equal(at(100.08)) || late != 80*time.Microsecond {
		t.Errorf("idle worker: start %v late %v", start.Sub(t0), late)
	}
	// Still busy at the due time: timed from when it was due.
	start, late = openClock(at(100), at(130), at(130))
	if !start.Equal(at(100)) || late != 30*time.Millisecond {
		t.Errorf("busy worker: start %v late %v", start.Sub(t0), late)
	}
}

// stallExec answers instantly except for one call, which takes a while.
type stallExec struct {
	calls   int
	stallAt int
	stall   time.Duration
}

func (e *stallExec) Do(c *Call) Result {
	e.calls++
	if e.calls == e.stallAt {
		time.Sleep(e.stall)
	}
	return Result{Status: 200, HasRTT: true, Reachable: true}
}

// allowAll is a source of probes the model expects to succeed.
type allowAll struct{ lay *layout }

func (s allowAll) Next() Op {
	return Op{Kind: Probe, Tenant: 0, A: s.lay.homeStable[0], B: s.lay.homeStable[1]}
}

func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	lay := testLayout(t)
	model := newModel(lay)
	for s := range model.tenants[0].addr {
		model.tenants[0].addr[s] = "100.64.0.1"
	}
	const stall, gap, n = 60 * time.Millisecond, 5 * time.Millisecond, 10
	w := &worker{model: model, exec: &stallExec{stallAt: 2, stall: stall}, src: allowAll{lay}}
	arrivals := make([]time.Duration, n)
	for i := range arrivals {
		arrivals[i] = time.Duration(i+1) * gap
	}
	st := w.openLoop(time.Now(), arrivals, n*gap)
	lat := st.lat[Read]
	if len(lat) != n || st.failed != 0 {
		t.Fatalf("%d of %d completed, %d failed: %v", len(lat), n, st.failed, st.firstErr)
	}
	if lat[0] > stall/2 {
		t.Errorf("request before the stall took %v", lat[0])
	}
	if lat[1] < stall {
		t.Errorf("the stalled request took %v, want at least %v", lat[1], stall)
	}
	// Request i (0-based) was due i*gap after the stalled one and could
	// not be sent before the stall ended.
	for i := 2; i < 6; i++ {
		if want := stall - time.Duration(i-1)*gap; lat[i] < want {
			t.Errorf("request %d behind the stall took %v, want at least %v (timed from its due time)", i, lat[i], want)
		}
	}
	if st.sloMiss < 5 {
		t.Errorf("%d requests missed the 10ms read limit, want at least 5", st.sloMiss)
	}
}

// Two workers on one world, completing in whatever order the scheduler
// gives: every slot must still hold the address the world granted it.
func TestSlotBindingSurvivesConcurrentWorkers(t *testing.T) {
	lay := testLayout(t)
	world, err := declnet.NewFig1World(1, lay.spec.Hosts)
	if err != nil {
		t.Fatal(err)
	}
	model := newModel(lay)
	ex := &coreExec{world: world}
	wl := workloads[1] // write_mostly: the slot churn
	workers := newWorkers(wl, lay, model, 3, []Executor{ex, ex})
	if st := setupWorld(lay, workers); st.failed > 0 {
		t.Fatal(st.firstErr)
	}
	var wg sync.WaitGroup
	stats := make([]*phaseStats, len(workers))
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			stats[i] = w.closedCount(4000)
		}(i, w)
	}
	wg.Wait()
	for i, st := range stats {
		if st.failed > 0 {
			t.Fatalf("worker %d: %d failed: %v", i, st.failed, st.firstErr)
		}
	}
	counts := world.Cloud.TenantResources()
	for _, tm := range model.tenants {
		if got := counts[tm.name]; got.EIPs != tm.eips || got.SIPs != tm.nsip {
			t.Errorf("%s: world has %d eips / %d sips, model %d / %d", tm.name, got.EIPs, got.SIPs, tm.eips, tm.nsip)
		}
		held := 0
		for slot, a := range tm.addr {
			if a == "" {
				continue
			}
			held++
			ip, err := declnet.ParseIP(a)
			if err != nil {
				t.Fatal(err)
			}
			if p, ok := world.Cloud.ProviderOf(ip); !ok {
				t.Errorf("%s slot %d holds %s, which the world never granted", tm.name, slot, a)
			} else if _, ok := p.Lookup(ip); !ok {
				t.Errorf("%s slot %d holds %s, which is not an endpoint", tm.name, slot, a)
			}
		}
		if held != tm.eips {
			t.Errorf("%s: %d slots hold addresses, model counts %d eips", tm.name, held, tm.eips)
		}
	}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(buf, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func better(d metricDef) string {
	if d.Higher {
		return "higher"
	}
	return "lower"
}

func TestBenchmarkFileMatchesTheCatalogue(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if i < len(workloads) && w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the catalogue %d and %d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if m := f.EndToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d) || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the catalogue %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := f.PerLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the catalogue %+v", i, m, d)
		}
	}
}

// TestSmoke runs all four workloads untraced against a real daemon on a
// small world, recovery check included, then the traced run on the two
// whose generators differ.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts declnetd; skipped under -short")
	}
	buildDir = t.TempDir()
	defer runCleanups()
	f := readBenchmarkFile(t)
	for _, traced := range []bool{false, true} {
		wls := workloads
		if traced {
			wls = []Workload{workloads[1], workloads[3]}
		}
		report, err := benchmark(options{workloads: wls, seed: 1, smoke: true, traced: traced, repeat: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !report.Correct {
			t.Error("the run reports incorrect responses")
		}
		for _, r := range report.Runs {
			if r.Failed != 0 || r.Layers["loadgen.error_share"] != 0 {
				t.Errorf("%s: %d of %d requests failed: %s", r.Workload, r.Failed, r.Attempted, r.FirstErr)
			}
			check := func(name string, values map[string]float64) {
				if v, ok := values[name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: metric %s missing or not finite (%v)", r.Workload, name, v)
				}
			}
			if traced {
				for _, m := range f.PerLayer {
					check(m.Name, r.Layers)
				}
			} else {
				for _, m := range f.EndToEnd {
					check(m.Name, r.Metrics)
				}
			}
		}
	}
}
