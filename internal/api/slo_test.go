package api

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"declnet"
	"declnet/internal/intent"
	"declnet/internal/slo"
)

// newSLOServer is newTestServer with the server's plane replaced by one
// configured for detector tests (every span sampled, explicit windows).
func newSLOServer(t *testing.T) (*httptest.Server, *declnet.World, *slo.Plane) {
	t.Helper()
	w, err := declnet.NewFig1World(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(w)
	plane := slo.NewPlane(slo.Config{Window: time.Hour, SampleEvery: 1})
	w.EnableSLO(plane)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, w, plane
}

func TestSLOEndpoints(t *testing.T) {
	ts, w, _ := newSLOServer(t)
	f := w.Fig1

	// Objective registration: good spec, then the 400 paths.
	if code := post(t, ts, "/v1/slo", SLOSetRequest{Tenant: "acme",
		Objective: "connect_p99=5ms;permit_lag_p99=1ms"}, nil); code != 200 {
		t.Fatalf("set objective status %d", code)
	}
	if code := post(t, ts, "/v1/slo", SLOSetRequest{Objective: "connect_p99=5ms"}, nil); code != 400 {
		t.Fatalf("missing tenant status %d, want 400", code)
	}
	if code := post(t, ts, "/v1/slo", SLOSetRequest{Tenant: "acme", Objective: "latency=oops"}, nil); code != 400 {
		t.Fatalf("bad spec status %d, want 400", code)
	}

	// Drive a couple of real verbs so shards materialize.
	var src, dst EIPResponse
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))}, &src)
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az2", 1))}, &dst)
	if code := post(t, ts, "/v1/permit", PermitRequest{Tenant: "acme",
		Target: dst.EIP, Entries: []string{src.EIP + "/32"}}, nil); code != 200 {
		t.Fatal("permit failed")
	}
	if code := get(t, ts, fmt.Sprintf("/v1/probe?tenant=acme&src=%s&dst=%s", src.EIP, dst.EIP), nil); code != 200 {
		t.Fatalf("probe status %d", code)
	}

	var rep SLOResponse
	if code := get(t, ts, "/v1/slo", &rep); code != 200 {
		t.Fatalf("slo report status %d", code)
	}
	if len(rep.Tenants) != 1 || rep.Tenants[0].Tenant != "acme" {
		t.Fatalf("tenants = %+v, want acme", rep.Tenants)
	}
	tr := rep.Tenants[0]
	if tr.Objective == nil || tr.Objective.Spec != "connect_p99=5ms;permit_lag_p99=1ms" {
		t.Fatalf("objective = %+v", tr.Objective)
	}
	if len(tr.Shards) == 0 {
		t.Fatal("no shards reported after real traffic")
	}
	seen := map[string]bool{}
	for _, sh := range tr.Shards {
		for _, v := range sh.Verbs {
			seen[v.Verb] = true
		}
	}
	for _, want := range []string{"grant", "permit", "probe"} {
		if !seen[want] {
			t.Errorf("verb %q missing from shard report (got %v)", want, seen)
		}
	}

	// Tenant filter: an unknown tenant reports empty.
	if code := get(t, ts, "/v1/slo?tenant=nobody", &rep); code != 200 || len(rep.Tenants) != 0 {
		t.Fatalf("filtered report = %d / %+v", code, rep.Tenants)
	}
}

func TestHealthEndpoint(t *testing.T) {
	ts, _, plane := newSLOServer(t)

	var rep slo.HealthReport
	if code := get(t, ts, "/v1/health", &rep); code != 200 || rep.Status != "ok" {
		t.Fatalf("healthy status = %d / %q", code, rep.Status)
	}

	// Synthesize a breach: fast baseline window, slow current window, and
	// a dominant mutator from another tenant.
	// 32 connects a window: the detector's floor.
	for i := 0; i < 32; i++ {
		plane.Observe(slo.VerbConnect, "victim", "cloudA/a-east", time.Microsecond)
	}
	plane.AdvanceWindow()
	for i := 0; i < 32; i++ {
		plane.Observe(slo.VerbConnect, "victim", "cloudA/a-east", 100*time.Microsecond)
	}
	for i := 0; i < 100; i++ {
		plane.Observe(slo.VerbPermit, "noisy", "cloudB/b-east", time.Microsecond)
	}
	if code := get(t, ts, "/v1/health", &rep); code != http.StatusServiceUnavailable {
		t.Fatalf("degraded health status = %d, want 503", code)
	}
	if rep.Status != "degraded" || len(rep.Breaches) != 1 {
		t.Fatalf("health = %+v, want one breach", rep)
	}
	b := rep.Breaches[0]
	if b.Shard != "victim@cloudA/a-east" || b.Suspect != "noisy@cloudB/b-east" {
		t.Fatalf("breach = %+v, wrong attribution", b)
	}
}

func TestFlightEndpoint(t *testing.T) {
	ts, _, plane := newSLOServer(t)

	for i := 0; i < 3; i++ {
		op := plane.Begin(slo.VerbConnect, "acme", "cloudA/a-east")
		op.End(errors.New("synthetic"))
	}
	var rep FlightResponse
	if code := get(t, ts, "/v1/debug/flight", &rep); code != 200 {
		t.Fatalf("flight status %d", code)
	}
	if rep.Retained != 3 || len(rep.Spans) != 3 {
		t.Fatalf("flight = retained %d, %d spans; want 3/3", rep.Retained, len(rep.Spans))
	}
	if rep.Spans[0].Why != "error" || rep.Spans[0].Err != "synthetic" {
		t.Fatalf("span = %+v", rep.Spans[0])
	}
	if code := get(t, ts, "/v1/debug/flight?n=1", &rep); code != 200 || len(rep.Spans) != 1 {
		t.Fatalf("flight?n=1 = %d / %d spans", code, len(rep.Spans))
	}
	if code := get(t, ts, "/v1/debug/flight?n=-2", nil); code != 400 {
		t.Fatalf("bad n status %d, want 400", code)
	}
	if code := get(t, ts, "/v1/debug/flight?n=zzz", nil); code != 400 {
		t.Fatalf("non-numeric n status %d, want 400", code)
	}
}

// TestWriteSpansCarryLockAndJournalStages: a retained batch span and a
// retained single-verb span, read back through /v1/debug/flight, each
// say how long the write waited for its shards and how long the journal
// append took.
func TestWriteSpansCarryLockAndJournalStages(t *testing.T) {
	ts, w, _ := newSLOServer(t) // SampleEvery 1: every span is retained with its stages
	l, err := intent.Open(t.TempDir(), intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	w.EnableIntent(l)
	f := w.Fig1

	var resp BatchResponse
	if code := post(t, ts, "/v1/batch", BatchRequest{Tenant: "acme", Ops: []BatchOpRequest{
		{Op: "request_eip", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))},
		{Op: "request_sip", Provider: f.CloudA},
		{Op: "bind", EIP: "$0", SIP: "$1"},
	}}, &resp); code != 200 {
		t.Fatalf("batch status %d: %+v", code, resp)
	}
	if code := post(t, ts, "/v1/permit", PermitRequest{Tenant: "acme",
		Target: resp.Results[0].Addr, Entries: []string{"10.0.0.0/8"}}, nil); code != 200 {
		t.Fatalf("permit status %d", code)
	}
	var rep FlightResponse
	if code := get(t, ts, "/v1/debug/flight", &rep); code != 200 {
		t.Fatalf("flight status %d", code)
	}
	for _, verb := range []string{"batch", "permit"} {
		stages := map[string]bool{}
		for _, sp := range rep.Spans {
			if sp.Verb == verb {
				for _, st := range sp.Stages {
					stages[st.Name] = true
				}
			}
		}
		if !stages["shard_wait"] || !stages["journal"] {
			t.Errorf("%s span stages = %v, want shard_wait and journal", verb, stages)
		}
	}
}

// TestProbeRetainsAPISpan checks the HTTP → core span threading: a denied
// probe through the full API stack must land one error span whose stages
// were timed inside core.
func TestProbeRetainsAPISpan(t *testing.T) {
	ts, w, plane := newSLOServer(t)
	f := w.Fig1

	var src, dst EIPResponse
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))}, &src)
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudB, f.RegionsB[0], "az1", 1))}, &dst)
	// No permit list: the probe is denied and the span retained as error.
	if code := get(t, ts, fmt.Sprintf("/v1/probe?tenant=acme&src=%s&dst=%s", src.EIP, dst.EIP), nil); code == 200 {
		t.Fatal("unpermitted probe succeeded")
	}
	var denied *slo.SpanRecord
	for _, sp := range plane.Flight(0) {
		if sp.Verb == "probe" && sp.Why == "error" {
			sp := sp
			denied = &sp
		}
	}
	if denied == nil {
		t.Fatal("denied probe left no error span in the flight recorder")
	}
	hasPermitStage := false
	for _, st := range denied.Stages {
		if st.Name == "permit" {
			hasPermitStage = true
		}
	}
	if !hasPermitStage {
		t.Fatalf("probe span stages = %+v, want a core-timed permit stage", denied.Stages)
	}
}
