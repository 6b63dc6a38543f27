package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"declnet"
)

func newTestServer(t *testing.T) (*httptest.Server, *declnet.World) {
	t.Helper()
	w, err := declnet.NewFig1World(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(w))
	t.Cleanup(ts.Close)
	return ts, w
}

func post(t *testing.T, ts *httptest.Server, path string, body any, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func get(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestFullAPIFlow(t *testing.T) {
	ts, w := newTestServer(t)
	f := w.Fig1

	var client, be1, be2 EIPResponse
	if code := post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme",
		VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))}, &client); code != 200 {
		t.Fatalf("request_eip status %d", code)
	}
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudB, f.RegionsB[0], "az1", 1))}, &be1)
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudB, f.RegionsB[0], "az2", 1))}, &be2)

	var sip SIPResponse
	if code := post(t, ts, "/v1/sips", SIPRequest{Tenant: "acme", Provider: f.CloudB}, &sip); code != 200 {
		t.Fatalf("request_sip status %d", code)
	}
	for _, be := range []string{be1.EIP, be2.EIP} {
		if code := post(t, ts, "/v1/bind", BindRequest{Tenant: "acme", EIP: be, SIP: sip.SIP}, nil); code != 200 {
			t.Fatalf("bind status %d", code)
		}
	}
	// Transfer before permitting: default-off, 403.
	if code := post(t, ts, "/v1/transfer", TransferRequest{Tenant: "acme",
		Src: client.EIP, Dst: sip.SIP, Bytes: 1e6}, nil); code != http.StatusForbidden {
		t.Fatalf("unpermitted transfer status %d, want 403", code)
	}
	if code := post(t, ts, "/v1/permit", PermitRequest{Tenant: "acme",
		Target: sip.SIP, Entries: []string{client.EIP}}, nil); code != 200 {
		t.Fatalf("set_permit_list status %d", code)
	}
	var tr TransferResponse
	if code := post(t, ts, "/v1/transfer", TransferRequest{Tenant: "acme",
		Src: client.EIP, Dst: sip.SIP, Bytes: 1e6}, &tr); code != 200 {
		t.Fatalf("transfer status %d", code)
	}
	if tr.FCTMillis <= 0 {
		t.Fatalf("FCT = %v", tr.FCTMillis)
	}
	var pr ProbeResponse
	if code := get(t, ts, fmt.Sprintf("/v1/probe?tenant=acme&src=%s&dst=%s", client.EIP, sip.SIP), &pr); code != 200 {
		t.Fatalf("probe status %d", code)
	}
	if pr.RTTMillis <= 0 {
		t.Fatalf("probe RTT = %v", pr.RTTMillis)
	}
	var st StatusResponse
	if code := get(t, ts, "/v1/status", &st); code != 200 {
		t.Fatalf("status %d", code)
	}
	if st.Providers[f.CloudB].(map[string]any)["endpoints"].(float64) != 2 {
		t.Fatalf("status = %+v", st)
	}
}

func TestQoSPotatoGroups(t *testing.T) {
	ts, w := newTestServer(t)
	f := w.Fig1
	if code := post(t, ts, "/v1/qos", QoSRequest{Tenant: "acme", Provider: f.CloudA,
		Region: f.RegionsA[0], Bandwidth: 1e9}, nil); code != 200 {
		t.Fatalf("qos status %d", code)
	}
	if code := post(t, ts, "/v1/potato", PotatoRequest{Tenant: "acme", Provider: f.CloudA, Policy: "cold"}, nil); code != 200 {
		t.Fatalf("potato status %d", code)
	}
	if code := post(t, ts, "/v1/potato", PotatoRequest{Tenant: "acme", Provider: f.CloudA, Policy: "lukewarm"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad potato status %d", code)
	}
	var a, b EIPResponse
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))}, &a)
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 2))}, &b)
	if code := post(t, ts, "/v1/groups", GroupRequest{Tenant: "acme",
		Name: "web", Members: []string{a.EIP, b.EIP}}, nil); code != 200 {
		t.Fatalf("groups status %d", code)
	}
}

// TestNegativeBandwidthRefused: set_qos with a negative rate is a 409 on
// the single route and in a batch, which names the failing op; zero,
// which clears the reservation, stays a 200.
func TestNegativeBandwidthRefused(t *testing.T) {
	ts, w := newTestServer(t)
	f := w.Fig1
	qos := QoSRequest{Tenant: "acme", Provider: f.CloudA, Region: f.RegionsA[0], Bandwidth: -5}
	if code := post(t, ts, "/v1/qos", qos, nil); code != http.StatusConflict {
		t.Errorf("set_qos at -5 bit/s: status %d, want 409", code)
	}
	var resp BatchResponse
	batch := BatchRequest{Tenant: "acme", Ops: []BatchOpRequest{
		{Op: "set_qos", Provider: f.CloudA, Region: f.RegionsA[0], Bandwidth: -7}}}
	if code := post(t, ts, "/v1/batch", batch, &resp); code != http.StatusConflict ||
		resp.FailedIndex == nil || *resp.FailedIndex != 0 || resp.Applied != 0 {
		t.Errorf("batch set_qos at -7 bit/s: status %d, %+v; want 409 failing op 0", code, resp)
	}
	qos.Bandwidth = 0
	if code := post(t, ts, "/v1/qos", qos, nil); code != 200 {
		t.Errorf("set_qos at 0 bit/s: status %d, want 200", code)
	}
}

// TestTransferIsBoundedByMaxAdvance: a transfer holds the world gate
// while the engine runs its flow, so the run stops at maxAdvance of
// virtual time. A flow too large to finish by then — 1e13 bytes under a
// regional quota whose limiter ticks every 100 ms — is stopped, and the
// request is refused naming the bound.
func TestTransferIsBoundedByMaxAdvance(t *testing.T) {
	ts, w := newTestServer(t)
	f := w.Fig1
	var src, dst EIPResponse
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))}, &src)
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudB, f.RegionsB[0], "az1", 1))}, &dst)
	if code := post(t, ts, "/v1/permit", PermitRequest{Tenant: "acme", Target: dst.EIP, Entries: []string{src.EIP}}, nil); code != 200 {
		t.Fatalf("permit status %d", code)
	}
	if code := post(t, ts, "/v1/qos", QoSRequest{Tenant: "acme", Provider: f.CloudA, Region: f.RegionsA[0], Bandwidth: 1e9}, nil); code != 200 {
		t.Fatalf("set_qos status %d", code)
	}
	var before time.Duration
	var active int
	w.Cloud.Exclusive(func() { before, active = w.Cloud.Eng.Now(), w.Cloud.Net.Active() })
	var refused Error
	code := post(t, ts, "/v1/transfer", TransferRequest{Tenant: "acme", Src: src.EIP, Dst: dst.EIP, Bytes: 1e13}, &refused)
	if code < 400 || code >= 500 {
		t.Fatalf("1e13-byte transfer: status %d, want a 4xx", code)
	}
	if want := fmt.Sprint(maxAdvance.Milliseconds()); !strings.Contains(refused.Error, want) {
		t.Errorf("refusal %q does not name the %s ms bound", refused.Error, want)
	}
	w.Cloud.Exclusive(func() {
		if advanced := w.Cloud.Eng.Now() - before; advanced > maxAdvance {
			t.Errorf("the refused transfer advanced the clock %v, bound %v", advanced, maxAdvance)
		}
		if now := w.Cloud.Net.Active(); now != active {
			t.Errorf("%d flows active after the refused transfer, %d before", now, active)
		}
	})
}

func TestValidationErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		path string
		body any
		want int
	}{
		{"/v1/eips", EIPRequest{Tenant: "acme", VM: "bogus"}, http.StatusConflict},
		{"/v1/eips/release", ReleaseRequest{Tenant: "acme", EIP: "not-an-ip"}, http.StatusBadRequest},
		{"/v1/bind", BindRequest{Tenant: "acme", EIP: "x", SIP: "y"}, http.StatusBadRequest},
		{"/v1/permit", PermitRequest{Tenant: "acme", Target: "1.2.3.4", Entries: []string{"zzz"}}, http.StatusBadRequest},
		{"/v1/transfer", TransferRequest{Tenant: "acme", Src: "1.2.3.4", Dst: "5.6.7.8", Bytes: -1}, http.StatusBadRequest},
		{"/v1/qos", QoSRequest{Tenant: "acme", Provider: "nope", Region: "r"}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code := post(t, ts, c.path, c.body, nil); code != c.want {
			t.Errorf("%s: status %d, want %d", c.path, code, c.want)
		}
	}
	if code := get(t, ts, "/v1/probe?tenant=acme&src=bad&dst=bad", nil); code != http.StatusBadRequest {
		t.Errorf("probe bad params status %d", code)
	}
}

// TestUnknownFieldRejected: a POST body is one JSON value of the route's
// request type. An unknown field, a second object after it, or garbage
// after it is a 400 on every route that takes a body, and nothing is
// applied; trailing whitespace, which json.Encoder ends each body with,
// stays accepted.
func TestUnknownFieldRejected(t *testing.T) {
	ts, w := newTestServer(t)
	f := w.Fig1
	vmA, vmB := string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1)), string(w.Host(f.CloudB, f.RegionsB[0], "az1", 1))
	var client, server EIPResponse
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: vmA}, &client)
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: vmB}, &server)
	var sip SIPResponse
	post(t, ts, "/v1/sips", SIPRequest{Tenant: "acme", Provider: f.CloudB}, &sip)
	post(t, ts, "/v1/bind", BindRequest{Tenant: "acme", EIP: server.EIP, SIP: sip.SIP}, nil)
	routes := []struct {
		path string
		body any
	}{
		{"/v1/eips", EIPRequest{Tenant: "acme", VM: vmA}},
		{"/v1/eips/release", ReleaseRequest{Tenant: "acme", EIP: client.EIP}},
		{"/v1/sips", SIPRequest{Tenant: "acme", Provider: f.CloudB}},
		{"/v1/bind", BindRequest{Tenant: "acme", EIP: client.EIP, SIP: sip.SIP}},
		{"/v1/unbind", BindRequest{Tenant: "acme", EIP: server.EIP, SIP: sip.SIP}},
		{"/v1/permit", PermitRequest{Tenant: "acme", Target: server.EIP, Entries: []string{client.EIP}}},
		{"/v1/qos", QoSRequest{Tenant: "acme", Provider: f.CloudA, Region: f.RegionsA[0], Bandwidth: 1e9}},
		{"/v1/potato", PotatoRequest{Tenant: "acme", Provider: f.CloudA, Policy: "cold"}},
		{"/v1/groups", GroupRequest{Tenant: "acme", Name: "web", Members: []string{client.EIP}}},
		{"/v1/names", NameRequest{Tenant: "acme", Name: "db", Target: server.EIP}},
		{"/v1/batch", BatchRequest{Tenant: "acme", Ops: []BatchOpRequest{{Op: "request_eip", VM: vmA}}}},
		{"/v1/transfer", TransferRequest{Tenant: "acme", Src: client.EIP, Dst: server.EIP, Bytes: 1e6}},
		{"/v1/fail", FaultRequest{Kind: "node", Target: vmB, AdvanceMillis: 1000}},
		{"/v1/heal", FaultRequest{Kind: "node", Target: vmB, AdvanceMillis: 1000}},
		{"/v1/slo", SLOSetRequest{Tenant: "acme", Objective: "connect_p99=5ms"}},
	}
	status := func() StatusResponse {
		var st StatusResponse
		get(t, ts, "/v1/status", &st)
		st.UptimeSeconds, st.MetricSamples = 0, 0
		return st
	}
	want := status()
	for _, r := range routes {
		buf, err := json.Marshal(r.body)
		if err != nil {
			t.Fatal(err)
		}
		body := string(buf)
		for _, bad := range []struct{ what, body string }{
			{"an unknown field", body[:len(body)-1] + `,"bogus":1}`},
			{"a second object after it", body + `{"tenant":"mallory"}`},
			{"garbage after it", body + " garbage"},
		} {
			resp, err := http.Post(ts.URL+r.path, "application/json", strings.NewReader(bad.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s, body with %s: status %d, want 400", r.path, bad.what, resp.StatusCode)
			}
			if got := status(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, body with %s: the world changed:\n got %+v\nwant %+v", r.path, bad.what, got, want)
			}
		}
	}
	// json.Encoder's trailing newline, and any other whitespace, is fine.
	resp, err := http.Post(ts.URL+"/v1/eips", "application/json",
		strings.NewReader(`{"tenant":"acme","vm":"`+vmA+`"}`+"\n \t\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("a body ending in whitespace: status %d, want 200", resp.StatusCode)
	}
}

// TestOversizedBodyIs413: a POST body over maxBody is refused whole with
// 413 — not truncated into a 400 parse error — whether or not the
// tenant rides in the query string.
func TestOversizedBodyIs413(t *testing.T) {
	ts, _ := newTestServer(t)
	op := BatchOpRequest{Op: "request_eip", VM: "cloudA/a-east/az1/host1"}
	req := BatchRequest{Tenant: "acme", Ops: make([]BatchOpRequest, maxBody/32)}
	for i := range req.Ops {
		req.Ops[i] = op
	}
	for _, path := range []string{"/v1/batch", "/v1/batch?tenant=acme"} {
		if code := post(t, ts, path, req, nil); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body status %d, want 413", path, code)
		}
	}
	var st StatusResponse
	get(t, ts, "/v1/status", &st)
	if n := st.Tenants["acme"].EIPs; n != 0 {
		t.Errorf("a refused batch granted %d EIPs", n)
	}
	req.Ops = req.Ops[:8]
	if code := post(t, ts, "/v1/batch?tenant=acme", req, nil); code != 200 {
		t.Errorf("in-limit batch status %d", code)
	}
}

func TestNamesEndToEnd(t *testing.T) {
	ts, w := newTestServer(t)
	f := w.Fig1
	var client, server EIPResponse
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))}, &client)
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudB, f.RegionsB[0], "az1", 1))}, &server)
	post(t, ts, "/v1/permit", PermitRequest{Tenant: "acme", Target: server.EIP, Entries: []string{client.EIP}}, nil)
	if code := post(t, ts, "/v1/names", NameRequest{Tenant: "acme", Name: "db", Target: server.EIP}, nil); code != 200 {
		t.Fatalf("register name status %d", code)
	}
	// Transfer by name instead of address.
	var tr TransferResponse
	if code := post(t, ts, "/v1/transfer", TransferRequest{Tenant: "acme",
		Src: client.EIP, Dst: "db", Bytes: 1e6}, &tr); code != 200 {
		t.Fatalf("transfer-by-name status %d", code)
	}
	if tr.FCTMillis <= 0 {
		t.Fatalf("FCT = %v", tr.FCTMillis)
	}
	// Probe by name.
	var pr ProbeResponse
	if code := get(t, ts, fmt.Sprintf("/v1/probe?tenant=acme&src=%s&dst=db", client.EIP), &pr); code != 200 {
		t.Fatalf("probe-by-name status %d", code)
	}
	// Unknown name.
	if code := post(t, ts, "/v1/transfer", TransferRequest{Tenant: "acme",
		Src: client.EIP, Dst: "ghost", Bytes: 1}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown name status %d", code)
	}
}

func TestUnbindEndpoint(t *testing.T) {
	ts, w := newTestServer(t)
	f := w.Fig1
	var be EIPResponse
	var sip SIPResponse
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudB, f.RegionsB[0], "az1", 1))}, &be)
	post(t, ts, "/v1/sips", SIPRequest{Tenant: "acme", Provider: f.CloudB}, &sip)
	post(t, ts, "/v1/bind", BindRequest{Tenant: "acme", EIP: be.EIP, SIP: sip.SIP}, nil)
	if code := post(t, ts, "/v1/unbind", BindRequest{Tenant: "acme", EIP: be.EIP, SIP: sip.SIP}, nil); code != 200 {
		t.Fatalf("unbind status %d", code)
	}
	if code := post(t, ts, "/v1/unbind", BindRequest{Tenant: "acme", EIP: be.EIP, SIP: sip.SIP}, nil); code != http.StatusConflict {
		t.Fatalf("double unbind status %d", code)
	}
}

func TestReleaseFlow(t *testing.T) {
	ts, w := newTestServer(t)
	f := w.Fig1
	var e EIPResponse
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))}, &e)
	if code := post(t, ts, "/v1/eips/release", ReleaseRequest{Tenant: "acme", EIP: e.EIP}, nil); code != 200 {
		t.Fatalf("release status %d", code)
	}
	if code := post(t, ts, "/v1/eips/release", ReleaseRequest{Tenant: "acme", EIP: e.EIP}, nil); code != http.StatusConflict {
		t.Fatalf("double release status %d", code)
	}
}
