package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

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
		{"/v1/qos", QoSRequest{Tenant: "acme", Provider: "nope", Region: "r"}, http.StatusConflict},
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

func TestUnknownFieldRejected(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/eips", "application/json",
		bytes.NewReader([]byte(`{"tenant":"acme","vm":"x","bogus":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status %d", resp.StatusCode)
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
