package api

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"declnet/internal/core"
	"declnet/internal/simplane"
	"declnet/internal/topo"
)

// daemonServer serves the cloud declnetd builds: the Figure-1 providers
// over a cloud that programs no data plane, its probes seeded by seed.
func daemonServer(t *testing.T, seed int64) (*httptest.Server, *topo.Fig1World) {
	t.Helper()
	w := topo.BuildFig1(2)
	c := core.NewCloud(w.Graph, core.NoDataPlane(seed))
	if _, _, _, err := core.AddFig1Providers(c, w); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(c))
	t.Cleanup(ts.Close)
	return ts, w
}

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// simulatorSeries are the series only a simulated data plane exports.
var simulatorSeries = []string{
	"declnet_virtual_time_seconds",
	"declnet_event_queue_depth",
	"declnet_solver_",
	"declnet_flows_active",
}

// TestSimulatorGaugesFollowTheDataPlane: a server over a cloud with no
// data plane — declnetd's — exports no simulator series after first
// set_qos requests for several (tenant, region) pairs, each of which once
// armed a quota-limiter ticker on an engine that never ran and so grew
// its event queue for good. A server over an in-process World exports
// every one of them.
func TestSimulatorGaugesFollowTheDataPlane(t *testing.T) {
	ts, f := daemonServer(t, 1)
	regions := []struct{ provider, region string }{
		{f.CloudA, f.RegionsA[0]}, {f.CloudA, f.RegionsA[1]}, {f.CloudB, f.RegionsB[0]},
	}
	for _, tenant := range []string{"acme", "globex", "initech"} {
		for _, r := range regions {
			q := QoSRequest{Tenant: tenant, Provider: r.provider, Region: r.region, Bandwidth: 1e9}
			if code := post(t, ts, "/v1/qos", q, nil); code != http.StatusOK {
				t.Fatalf("set_qos %+v: status %d", q, code)
			}
		}
	}
	text := scrape(t, ts)
	if !strings.Contains(text, "declnet_endpoints{provider=") {
		t.Fatalf("scrape lacks the cloud's own series:\n%s", text)
	}
	for _, series := range simulatorSeries {
		if strings.Contains(text, series) {
			t.Errorf("a cloud with no data plane exports %s", series)
		}
	}

	wts, _ := newTestServer(t)
	text = scrape(t, wts)
	for _, series := range simulatorSeries {
		if !strings.Contains(text, series) {
			t.Errorf("an in-process World does not export %s", series)
		}
	}
}

// faultSeries are the series only an armed fault monitor exports.
var faultSeries = []string{
	"declnet_failovers_total",
	"declnet_rebinds_total",
	"declnet_permit_retries_total",
	"declnet_permit_timeouts_total",
	"declnet_permit_deferred",
	"declnet_failover_mttr_seconds",
	"declnet_permit_propagation_seconds",
}

// TestFaultSeriesFollowTheMonitor: a server over a cloud with no data
// plane, declnetd's, has no fault monitor and exports none of its series,
// nor does a simulated cloud whose monitor is idle, for they could never
// move. Arming the monitor exports every one, whether it is armed after
// the server is built (World.Fail arms it on first use) or before.
func TestFaultSeriesFollowTheMonitor(t *testing.T) {
	has := func(text string, want bool, what string) {
		t.Helper()
		for _, series := range faultSeries {
			if strings.Contains(text, series) != want {
				t.Errorf("%s: exports %s = %v, want %v", what, series, !want, want)
			}
		}
	}
	ts, _ := daemonServer(t, 1)
	has(scrape(t, ts), false, "a cloud with no data plane")

	wts, world := newTestServer(t)
	has(scrape(t, wts), false, "an in-process World before its first fault")
	world.Sim.EnableFaults(simplane.FaultPolicy{})
	has(scrape(t, wts), true, "an in-process World armed after the server")

	w := topo.BuildFig1(2)
	sp := simplane.New(1, w.Graph)
	if _, _, _, err := core.AddFig1Providers(sp.Cloud, w); err != nil {
		t.Fatal(err)
	}
	sp.EnableFaults(simplane.FaultPolicy{})
	armed := httptest.NewServer(NewServer(sp.Cloud))
	defer armed.Close()
	has(scrape(t, armed), true, "a simulated cloud armed before the server")
}

// TestDaemonProbeSamplesFromItsSeed: two clouds with no data plane,
// seeded alike, answer the same sequence of probes with the same rtt_ms
// and delivered, every RTT above zero: the sampler is seeded, and the
// probes draw from it alone. Concurrent probes then share it under the
// race detector.
func TestDaemonProbeSamplesFromItsSeed(t *testing.T) {
	run := func(seed int64) (*httptest.Server, string, []ProbeResponse) {
		ts, f := daemonServer(t, seed)
		var cl, db EIPResponse
		post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(topo.HostID(f.CloudA, f.RegionsA[0], "az1", 1))}, &cl)
		post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(topo.HostID(f.CloudB, f.RegionsB[0], "az1", 1))}, &db)
		if code := post(t, ts, "/v1/permit", PermitRequest{Tenant: "acme", Target: db.EIP, Entries: []string{cl.EIP}}, nil); code != http.StatusOK {
			t.Fatalf("set_permit_list: status %d", code)
		}
		probe := fmt.Sprintf("/v1/probe?tenant=acme&src=%s&dst=%s", cl.EIP, db.EIP)
		out := make([]ProbeResponse, 32)
		for i := range out {
			if code := get(t, ts, probe, &out[i]); code != http.StatusOK {
				t.Fatalf("probe %d: status %d", i, code)
			}
			if out[i].RTTMillis <= 0 {
				t.Fatalf("probe %d: rtt_ms = %v", i, out[i].RTTMillis)
			}
		}
		return ts, probe, out
	}
	ts, probe, a := run(7)
	_, _, b := run(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different samples:\n%v\n%v", a, b)
	}
	if _, _, c := run(8); reflect.DeepEqual(a, c) {
		t.Fatalf("seeds 7 and 8 sampled alike: %v", a)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := http.Get(ts.URL + probe)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}

// daemonSeries are the /v1/metrics series a cloud with no data plane
// exports: the registry's own, the read plane's and each provider's,
// none of the simulator's and none of a fault monitor's.
var daemonSeries = []string{
	"declnet_connects_total", "declnet_endpoints", "declnet_explains_total",
	"declnet_http_errors_total", "declnet_http_request_seconds_bucket",
	"declnet_http_request_seconds_count", "declnet_http_request_seconds_sum",
	"declnet_journal_bytes", "declnet_journal_records", "declnet_permit_entries",
	"declnet_permit_lookups_total", "declnet_permit_sets", "declnet_permit_updates_total",
	"declnet_placements", "declnet_probes_total", "declnet_services",
	"declnet_snapshot_bytes", "declnet_trace_bytes", "declnet_trace_events_total",
	"declnet_trace_evicted_total",
}

// TestDaemonQuotaAndSeries pins what declnetd's cloud answers once a
// quota is declared: explain's qos stage reads the declared quota with
// no enforcement point (the daemon installs none), and /v1/metrics
// exports the series a cloud with no data plane has always exported.
func TestDaemonQuotaAndSeries(t *testing.T) {
	ts, f := daemonServer(t, 1)
	var cl, db EIPResponse
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(topo.HostID(f.CloudA, f.RegionsA[0], "az1", 1))}, &cl)
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(topo.HostID(f.CloudB, f.RegionsB[0], "az1", 1))}, &db)
	if code := post(t, ts, "/v1/qos", QoSRequest{Tenant: "acme", Provider: f.CloudA, Region: f.RegionsA[0], Bandwidth: 2e9}, nil); code != http.StatusOK {
		t.Fatalf("set_qos: status %d", code)
	}
	var ex core.Explanation
	if code := get(t, ts, "/v1/explain?tenant=acme&src="+cl.EIP+"&dst="+db.EIP, &ex); code != http.StatusOK {
		t.Fatalf("explain: status %d", code)
	}
	var qos core.ExplainStep
	for _, s := range ex.Steps {
		if s.Stage == "qos" {
			qos = s
		}
	}
	if want := "vm-cap=5e+09bps region-quota=2e+09bps enforcers-up=0/0"; qos.Verdict != "info" || qos.Detail != want {
		t.Errorf("qos stage = %s %q, want info %q", qos.Verdict, qos.Detail, want)
	}

	names := map[string]bool{}
	for _, line := range strings.Split(scrape(t, ts), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		names[name] = true
	}
	got := make([]string, 0, len(names))
	for name := range names {
		got = append(got, name)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, daemonSeries) {
		t.Errorf("/v1/metrics series:\n got %q\nwant %q", got, daemonSeries)
	}
}
