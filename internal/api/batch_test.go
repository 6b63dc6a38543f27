package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"declnet"
	"declnet/internal/addr"
	"declnet/internal/intent"
)

// TestBatchEndpointOnboarding: one POST /v1/batch onboards a service —
// grants, binds, permits, and names via back-references — and the
// datapath works immediately after.
func TestBatchEndpointOnboarding(t *testing.T) {
	ts, w := newTestServer(t)
	f := w.Fig1

	var resp BatchResponse
	code := post(t, ts, "/v1/batch", BatchRequest{Tenant: "acme", Ops: []BatchOpRequest{
		{Op: "request_eip", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))}, // $0
		{Op: "request_eip", VM: string(w.Host(f.CloudB, f.RegionsB[0], "az1", 1))}, // $1
		{Op: "request_eip", VM: string(w.Host(f.CloudB, f.RegionsB[0], "az2", 1))}, // $2
		{Op: "request_sip", Provider: f.CloudB},                                    // $3
		{Op: "bind", EIP: "$1", SIP: "$3", Weight: 2},
		{Op: "bind", EIP: "$2", SIP: "$3"},
		{Op: "set_permit", Target: "$3", Entries: []string{"0.0.0.0/0"}},
		{Op: "register_name", Name: "db", Target: "$3"},
	}}, &resp)
	if code != 200 {
		t.Fatalf("batch status %d (error %q)", code, resp.Error)
	}
	if resp.Applied != 8 || len(resp.Results) != 8 || resp.Error != "" {
		t.Fatalf("batch response %+v, want 8 applied and no error", resp)
	}
	for i := 0; i < 4; i++ {
		if resp.Results[i].Addr == "" {
			t.Fatalf("grant op %d returned no address", i)
		}
	}
	// The onboarded service answers immediately: connect client -> SIP.
	client, err := declnet.ParseIP(resp.Results[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	sip, err := declnet.ParseIP(resp.Results[3].Addr)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := w.Tenant("acme").Connect(client, sip, declnet.ConnectOpts{SizeBytes: 1e3})
	if err != nil {
		t.Fatalf("Connect after batch onboarding: %v", err)
	}
	cn.Close()
	// The name landed too.
	if ip, ok := w.Tenant("acme").Resolve("db"); !ok || ip != sip {
		t.Fatalf("Resolve(db) = %s/%v, want %s", ip, ok, sip)
	}
}

// TestBatchEndpointValidationError: a statically invalid batch is
// rejected with 400 and nothing is applied — including the valid ops
// before the bad one.
func TestBatchEndpointValidationError(t *testing.T) {
	ts, w := newTestServer(t)
	f := w.Fig1
	vm := string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))

	for name, ops := range map[string][]BatchOpRequest{
		"unknown op":   {{Op: "request_eip", VM: vm}, {Op: "frobnicate"}},
		"bad address":  {{Op: "request_eip", VM: vm}, {Op: "release_eip", EIP: "nope"}},
		"bad backref":  {{Op: "request_eip", VM: vm}, {Op: "bind", EIP: "$9", SIP: "$0"}},
		"bad policy":   {{Op: "request_eip", VM: vm}, {Op: "set_potato", Provider: f.CloudA, Policy: "lukewarm"}},
		"bad entry":    {{Op: "request_eip", VM: vm}, {Op: "set_permit", Target: "1.2.3.4", Entries: []string{"not-a-cidr"}}},
		"unknown prov": {{Op: "request_eip", VM: vm}, {Op: "request_sip", Provider: "azure"}},
	} {
		var e Error
		if code := post(t, ts, "/v1/batch", BatchRequest{Tenant: "acme", Ops: ops}, &e); code != 400 {
			t.Errorf("%s: status %d, want 400 (error %q)", name, code, e.Error)
		}
	}
	// An empty batch is a 400 too.
	var e Error
	if code := post(t, ts, "/v1/batch", BatchRequest{Tenant: "acme"}, &e); code != 400 {
		t.Errorf("empty batch: status %d, want 400", code)
	}
	// None of the rejected batches applied their leading valid op.
	var status struct {
		Providers map[string]struct {
			Endpoints int `json:"endpoints"`
		} `json:"providers"`
	}
	if code := get(t, ts, "/v1/status", &status); code != 200 {
		t.Fatalf("status code %d", code)
	}
	for name, p := range status.Providers {
		if p.Endpoints != 0 {
			t.Errorf("provider %s has %d endpoints after rejected batches, want 0", name, p.Endpoints)
		}
	}
}

// TestBatchEndpointPartialFailure: a runtime failure mid-batch returns
// 409 with the applied prefix and the failing index; applied ops stay
// applied.
func TestBatchEndpointPartialFailure(t *testing.T) {
	ts, w := newTestServer(t)
	f := w.Fig1

	var resp BatchResponse
	code := post(t, ts, "/v1/batch", BatchRequest{Tenant: "acme", Ops: []BatchOpRequest{
		{Op: "request_eip", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))},
		{Op: "request_eip", VM: "ghost/az0/host9"}, // validates, fails at apply
		{Op: "request_sip", Provider: f.CloudA},
	}}, &resp)
	if code != 409 {
		t.Fatalf("partial failure status %d, want 409", code)
	}
	if resp.Applied != 1 || len(resp.Results) != 1 {
		t.Fatalf("applied %d results %v, want exactly the first op", resp.Applied, resp.Results)
	}
	if resp.FailedIndex == nil || *resp.FailedIndex != 1 {
		t.Fatalf("failed_index %v, want 1", resp.FailedIndex)
	}
	if resp.Error == "" {
		t.Fatal("409 response carried no error")
	}
	// The applied grant survives: releasing it through the normal
	// endpoint succeeds.
	if code := post(t, ts, "/v1/eips/release",
		ReleaseRequest{Tenant: "acme", EIP: resp.Results[0].Addr}, nil); code != 200 {
		t.Fatalf("release of batch-granted EIP: status %d", code)
	}
}

// TestBatchReplyBytes: a /v1/batch reply, 200 or 409, is byte for byte
// what json.Encoder writes for the BatchResponse it stands for: field
// order, omitted fields, HTML-escaped error text, trailing newline.
func TestBatchReplyBytes(t *testing.T) {
	srv, w, _ := newStoreServer(t)
	f := w.Fig1
	vm := string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))
	for _, c := range []struct {
		name string
		code int
		ops  []BatchOpRequest
	}{
		{"all applied", 200, []BatchOpRequest{
			{Op: "request_eip", VM: vm}, {Op: "request_sip", Provider: f.CloudA},
			{Op: "bind", EIP: "$0", SIP: "$1"}, {Op: "set_permit", Target: "$1", Entries: []string{"10.0.0.0/8"}},
		}},
		{"stopped at op 1", 409, []BatchOpRequest{
			{Op: "request_eip", VM: vm}, {Op: "request_eip", VM: "ghost<&>/az0/host9"}, {Op: "request_sip", Provider: f.CloudA},
		}},
		{"stopped at op 0", 409, []BatchOpRequest{{Op: "request_eip", VM: "ghost/az0/host9"}}},
	} {
		body, err := json.Marshal(BatchRequest{Tenant: "acme", Ops: c.ops})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		if rec.Code != c.code {
			t.Fatalf("%s: status %d, want %d: %s", c.name, rec.Code, c.code, rec.Body)
		}
		var resp BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.code == 409 && (resp.Error == "" || resp.FailedIndex == nil || *resp.FailedIndex != resp.Applied) {
			t.Fatalf("%s: reply %+v names no failing op", c.name, resp)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.String(); got != want.String() {
			t.Errorf("%s: reply\n%q\nwant\n%q", c.name, got, want.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", c.name, ct)
		}
	}
}

// newStoreServer is a Server over a Fig1 world with an intent store
// attached and no reconciler: what a /v1/batch costs and declares, with
// nothing running beside it.
func newStoreServer(t *testing.T) (*Server, *declnet.World, *intent.Log) {
	t.Helper()
	w, err := declnet.NewFig1World(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	l, err := intent.Open(t.TempDir(), intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	w.EnableIntent(l)
	return NewServer(w), w, l
}

// postBatch serves one /v1/batch body through srv in the calling
// goroutine and returns the decoded response, or an error unless it
// answered 200.
func postBatch(srv *Server, req BatchRequest) (BatchResponse, error) {
	var resp BatchResponse
	body, err := json.Marshal(req)
	if err != nil {
		return resp, err
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return resp, fmt.Errorf("decoding /v1/batch response: %v", err)
	}
	if rec.Code != http.StatusOK {
		return resp, fmt.Errorf("batch status %d (error %q)", rec.Code, resp.Error)
	}
	return resp, nil
}

// serveBatch is postBatch on the test's goroutine: any failure is fatal.
func serveBatch(t *testing.T, srv *Server, req BatchRequest) BatchResponse {
	t.Helper()
	resp, err := postBatch(srv, req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// onboardingOps is one onboarding batch of declnetd's benchmark shape: n
// request_eip, then a set_permit naming each grant by "$i".
func onboardingOps(vm string, n int) []BatchOpRequest {
	ops := make([]BatchOpRequest, 0, 2*n)
	for range n {
		ops = append(ops, BatchOpRequest{Op: "request_eip", VM: vm})
	}
	for i := range n {
		ops = append(ops, BatchOpRequest{Op: "set_permit", Target: fmt.Sprintf("$%d", i),
			Entries: []string{"10.1.0.0/16", "10.2.0.0/16"}})
	}
	return ops
}

// batchAllocBudget is the bytes one op of a 128-op onboarding batch may
// allocate through Server.ServeHTTP with a store attached, body decode
// and response encode included: the measured 464 B plus 10%. Decoding
// through encoding/json into a pooled BatchRequest, copying its ops into
// core ops, journaling from a fresh frame and encoding the reply through
// a []BatchOpResult measured 1 465 B.
const batchAllocBudget = 510

// raceEnabled is set by race_test.go when the race detector is compiled
// in.
var raceEnabled bool

// TestBatchAllocBudget: a /v1/batch op allocates what its own work needs
// and no more. A TotalAlloc delta over whole batches served in this
// goroutine; no clock is read.
func TestBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the daemon's")
	}
	srv, w, _ := newStoreServer(t)
	f := w.Fig1
	body, err := json.Marshal(BatchRequest{Tenant: "acme",
		Ops: onboardingOps(string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1)), 64)})
	if err != nil {
		t.Fatal(err)
	}
	const warm, measured = 2, 16
	reqs := make([]*http.Request, warm+measured)
	recs := make([]*httptest.ResponseRecorder, warm+measured)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
		recs[i] = httptest.NewRecorder()
	}
	for i := range warm {
		srv.ServeHTTP(recs[i], reqs[i])
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+measured; i++ {
		srv.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&after)
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(measured*128)
	t.Logf("%.0f B per op (budget %d)", perOp, batchAllocBudget)
	if perOp > batchAllocBudget {
		t.Errorf("a /v1/batch op allocates %.0f B, over its %d B budget", perOp, batchAllocBudget)
	}
}

// pooledPair is two batches for one tenant at the same op positions. The
// first sets a bind weight, a set_permit's groups and a group's members;
// the second leaves each of them out, so a recycled request that kept
// them would show: its bind would weigh 3, its list would admit the
// group's member and its group would hold one.
func pooledPair(vm, provider string) (first, second []BatchOpRequest) {
	first = []BatchOpRequest{
		{Op: "request_eip", VM: vm},             // $0
		{Op: "request_sip", Provider: provider}, // $1
		{Op: "bind", EIP: "$0", SIP: "$1", Weight: 3},
		{Op: "create_group", Name: "g", Members: []string{"$0"}},
		{Op: "set_permit", Target: "$1", Groups: []string{"g"}, Entries: []string{"10.0.0.0/8"}},
	}
	second = []BatchOpRequest{
		{Op: "request_eip", VM: vm},
		{Op: "request_sip", Provider: provider},
		{Op: "bind", EIP: "$0", SIP: "$1"},
		{Op: "create_group", Name: "h"},
		{Op: "set_permit", Target: "$1", Entries: []string{"10.0.0.0/8"}},
	}
	return first, second
}

// checkFresh fails unless the second batch of pooledPair, answered by
// resp, declared what a freshly decoded request declares.
func checkFresh(t *testing.T, l *intent.Log, tenant string, resp BatchResponse) {
	t.Helper()
	sip, err := addr.ParseIP(resp.Results[1].Addr)
	if err != nil {
		t.Error(err)
		return
	}
	st := l.State()
	if b := st.Services[sip].Binds; len(b) != 1 || b[0].Weight != 1 {
		t.Errorf("binds %v after a bind that named no weight, want one of weight 1", b)
	}
	pl, _ := st.Permit(sip)
	if want := []addr.Prefix{addr.MustParsePrefix("10.0.0.0/8")}; !reflect.DeepEqual(pl.Entries, want) {
		t.Errorf("permit list %v after a set_permit that named no groups, want %v", pl.Entries, want)
	}
	if m := st.Groups[intent.GroupKey(tenant, "h")]; len(m) != 0 {
		t.Errorf("group h has members %v, want none", m)
	}
}

// TestPooledBatchLeaksNothing: /v1/batch decodes into a recycled request,
// and a batch that omits a field behaves as if freshly decoded — its
// bind weight clamps to 1, its list names no group — whatever the
// request before it set there. Served in this goroutine, so the pool
// hands the second batch the first one's request.
func TestPooledBatchLeaksNothing(t *testing.T) {
	srv, w, l := newStoreServer(t)
	f := w.Fig1
	first, second := pooledPair(string(w.Host(f.CloudB, f.RegionsB[0], "az1", 1)), f.CloudB)
	for range 4 {
		serveBatch(t, srv, BatchRequest{Tenant: "acme", Ops: first})
		checkFresh(t, l, "acme", serveBatch(t, srv, BatchRequest{Tenant: "acme", Ops: second}))
	}
}

// verbAllocBudget is the bytes one POST /v1/permit may allocate through
// Server.ServeHTTP with a store attached, body decode, apply, journal
// and reply included: the measured 1 391 B plus 10%, the headroom
// batchAllocBudget has. The route's old path — encoding/json into a
// PermitRequest, its converter, Cloud.Apply and a json.Encoder reply —
// measured 2 735 B.
const verbAllocBudget = 1530

// TestVerbAllocBudget: a single-verb route allocates what its one op
// needs. Served in this goroutine, as TestBatchAllocBudget's batches
// are; each request replaces the list the one before it set.
func TestVerbAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the daemon's")
	}
	srv, w, _ := newStoreServer(t)
	f := w.Fig1
	eip, err := w.Tenant("acme").RequestEIP(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))
	if err != nil {
		t.Fatal(err)
	}
	var bodies [2][]byte
	for i, e := range []string{"10.1.0.0/16", "10.2.0.0/16"} {
		if bodies[i], err = json.Marshal(PermitRequest{Tenant: "acme", Target: eip.String(), Entries: []string{e, "10.9.0.9"}}); err != nil {
			t.Fatal(err)
		}
	}
	const warm, measured = 4, 256
	reqs := make([]*http.Request, warm+measured)
	recs := make([]*httptest.ResponseRecorder, warm+measured)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/permit", bytes.NewReader(bodies[i%2]))
		recs[i] = httptest.NewRecorder()
	}
	for i := range warm {
		srv.ServeHTTP(recs[i], reqs[i])
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+measured; i++ {
		srv.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&after)
	for i, rec := range recs {
		if rec.Code != http.StatusOK || rec.Body.String() != "{}\n" {
			t.Fatalf("request %d: status %d: %q", i, rec.Code, rec.Body)
		}
	}
	perReq := float64(after.TotalAlloc-before.TotalAlloc) / measured
	t.Logf("%.0f B per request (budget %d; 2 735 B through encoding/json)", perReq, verbAllocBudget)
	if perReq > verbAllocBudget {
		t.Errorf("POST /v1/permit allocates %.0f B, over its %d B budget", perReq, verbAllocBudget)
	}
}
