package api

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"declnet"
	"declnet/internal/obs"
)

// obsWorld grants a permitted client->SIP pair for diagnosis tests.
func obsWorld(t *testing.T) (ts *httptest.Server, w *declnet.World, client, sip string) {
	t.Helper()
	ts, w = newTestServer(t)
	f := w.Fig1
	var cl, be EIPResponse
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))}, &cl)
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudB, f.RegionsB[0], "az1", 1))}, &be)
	var sr SIPResponse
	post(t, ts, "/v1/sips", SIPRequest{Tenant: "acme", Provider: f.CloudB}, &sr)
	post(t, ts, "/v1/bind", BindRequest{Tenant: "acme", EIP: be.EIP, SIP: sr.SIP}, nil)
	post(t, ts, "/v1/permit", PermitRequest{Tenant: "acme", Target: sr.SIP, Entries: []string{cl.EIP}}, nil)
	return ts, w, cl.EIP, sr.SIP
}

// transfer moves 1 MB from client to sip in-process and runs the engine
// until it arrives: the connect records its decisions on the tracer and
// the registry the server reads. No request is in flight while it runs.
func transfer(t *testing.T, w *declnet.World, client, sip string) {
	t.Helper()
	src, _ := declnet.ParseIP(client)
	dst, _ := declnet.ParseIP(sip)
	if _, err := w.Tenant("acme").Transfer(src, dst, 1e6, nil); err != nil {
		t.Fatal(err)
	}
	w.Run()
}

func TestStatusEndpoint(t *testing.T) {
	ts, _, _, _ := obsWorld(t)
	var st StatusResponse
	if code := get(t, ts, "/v1/status", &st); code != 200 {
		t.Fatalf("status %d", code)
	}
	if st.UptimeSeconds < 0 {
		t.Fatalf("uptime = %v", st.UptimeSeconds)
	}
	rc, ok := st.Tenants["acme"]
	if !ok {
		t.Fatalf("no per-tenant counts: %+v", st.Tenants)
	}
	if rc.EIPs != 2 || rc.SIPs != 1 {
		t.Fatalf("acme counts = %+v, want 2 EIPs 1 SIP", rc)
	}
	if st.MetricSamples == 0 {
		t.Fatal("registry snapshot empty")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, w, client, sip := obsWorld(t)
	transfer(t, w, client, sip)
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE declnet_connects_total counter",
		`declnet_connects_total{outcome="ok"} 1`,
		"# TYPE declnet_http_request_seconds histogram",
		"# TYPE declnet_http_errors_total counter",
		"declnet_endpoints{provider=",
		"# TYPE declnet_trace_events_total gauge",
		"declnet_trace_evicted_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Ring churn reads off the scrape: the recorded count is /v1/status's.
	var st StatusResponse
	if code := get(t, ts, "/v1/status", &st); code != 200 || st.TraceEvents == 0 {
		t.Fatalf("status %d reports %d trace events after a transfer", code, st.TraceEvents)
	}
	if want := fmt.Sprintf("declnet_trace_events_total %d\n", st.TraceEvents); !strings.Contains(text, want) {
		t.Errorf("exposition missing %q", want)
	}
	// The request count is the latency histogram's _count, not a family
	// of its own.
	if strings.Contains(text, "declnet_http_requests_total") {
		t.Error("exposition still carries declnet_http_requests_total")
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts, _, client, sip := obsWorld(t)
	// Happy path: permitted, healthy backends.
	var ex declnet.Explanation
	if code := get(t, ts, "/v1/explain?tenant=acme&src="+client+"&dst="+sip, &ex); code != 200 {
		t.Fatalf("explain status %d", code)
	}
	if !ex.Reachable || ex.RootCause != "" {
		t.Fatalf("healthy path: reachable=%v cause=%q", ex.Reachable, ex.RootCause)
	}
	stages := make([]string, 0, len(ex.Steps))
	for _, s := range ex.Steps {
		stages = append(stages, s.Stage)
	}
	if got := strings.Join(stages, ","); got != "source,admission,balancer,destination,path,qos" {
		t.Fatalf("stage order = %s", got)
	}
	// Unknown tenant: the source EIP is not theirs -> 404.
	if code := get(t, ts, "/v1/explain?tenant=mallory&src="+client+"&dst="+sip, nil); code != http.StatusNotFound {
		t.Fatalf("foreign-tenant explain status %d, want 404", code)
	}
	// Unparseable src -> 400.
	if code := get(t, ts, "/v1/explain?tenant=acme&src=zzz&dst="+sip, nil); code != http.StatusBadRequest {
		t.Fatalf("bad-src explain status %d, want 400", code)
	}
}

func TestExplainNamesInjectedFault(t *testing.T) {
	ts, w, client, sip := obsWorld(t)
	// Kill the backend region in-process and let the health monitor react.
	if err := w.Fail("region", "cloudB/b-east"); err != nil {
		t.Fatal(err)
	}
	w.RunFor(3 * time.Second)
	var ex declnet.Explanation
	if code := get(t, ts, "/v1/explain?tenant=acme&src="+client+"&dst="+sip, &ex); code != 200 {
		t.Fatalf("explain status %d", code)
	}
	if ex.Reachable {
		t.Fatal("region down but explained reachable")
	}
	if !strings.Contains(ex.RootCause, "region-down:cloudB/b-east") {
		t.Fatalf("RootCause = %q, want region-down:cloudB/b-east", ex.RootCause)
	}
}

func TestTraceEndpoint(t *testing.T) {
	ts, w, client, sip := obsWorld(t)
	transfer(t, w, client, sip)
	var tr TraceResponse
	if code := get(t, ts, "/v1/trace?tenant=acme", &tr); code != 200 {
		t.Fatalf("trace status %d", code)
	}
	if len(tr.Events) == 0 {
		t.Fatal("no trace events after a transfer")
	}
	kinds := map[string]bool{}
	for _, ev := range tr.Events {
		kinds[ev.Kind.String()] = true
	}
	for _, want := range []string{"permit-update", "permit-allow", "sip-pick", "path-select"} {
		if !kinds[want] {
			t.Errorf("trace missing %s events; got %v", want, kinds)
		}
	}
	// n limits, kind filters.
	if code := get(t, ts, "/v1/trace?tenant=acme&n=1", &tr); code != 200 || len(tr.Events) != 1 {
		t.Fatalf("trace n=1 returned %d events (status %d)", len(tr.Events), code)
	}
	if code := get(t, ts, "/v1/trace?tenant=acme&kind=sip-pick", &tr); code != 200 {
		t.Fatalf("trace kind filter status %d", code)
	}
	for _, ev := range tr.Events {
		if ev.Kind != obs.SIPPick {
			t.Fatalf("kind filter leaked %s", ev.Kind)
		}
	}
	// Missing tenant -> 400; unknown tenant -> empty, not an error.
	if code := get(t, ts, "/v1/trace", nil); code != http.StatusBadRequest {
		t.Fatalf("traceless status %d, want 400", code)
	}
	if code := get(t, ts, "/v1/trace?tenant=nobody", &tr); code != 200 || len(tr.Events) != 0 {
		t.Fatalf("unknown tenant: status %d events %d", code, len(tr.Events))
	}
}

func TestRequestLogging(t *testing.T) {
	w, err := declnet.NewFig1World(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	ts := httptest.NewServer(NewServerWith(w, Options{Logger: logger}))
	defer ts.Close()
	f := w.Fig1
	var cl EIPResponse
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))}, &cl)
	get(t, ts, "/v1/status", nil)
	out := buf.String()
	for _, want := range []string{"method=POST", "path=/v1/eips", "tenant=acme", "status=200", "latency="} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}

// TestStatusCountsSamplesWithoutTakingThem: GET /v1/status reports
// metric_samples, the number of samples a /v1/metrics scrape takes, by
// counting the registry's instruments: on a populated world it equals
// len(Snapshot()), and no gauge function runs to produce it.
func TestStatusCountsSamplesWithoutTakingThem(t *testing.T) {
	ts, w := newTestServer(t)
	f := w.Fig1
	if code := post(t, ts, "/v1/batch", BatchRequest{Tenant: "acme", Ops: onboardingOps(
		string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1)), 8)}, nil); code != 200 {
		t.Fatalf("onboarding batch status %d", code)
	}
	var calls atomic.Int32
	w.Registry().GaugeFunc("declnet_test_gauge", "Counts its own samples.", func() float64 {
		return float64(calls.Add(1))
	})
	var st StatusResponse
	if code := get(t, ts, "/v1/status", &st); code != 200 {
		t.Fatalf("status %d", code)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("GET /v1/status ran a gauge function %d times", n)
	}
	if want := len(w.Registry().Snapshot()); st.MetricSamples != want || want == 0 {
		t.Errorf("metric_samples %d, want len(Snapshot()) = %d", st.MetricSamples, want)
	}
}
