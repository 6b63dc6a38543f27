package intent_test

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"declnet/internal/addr"
	"declnet/internal/api"
	"declnet/internal/intent"
	"declnet/internal/topo"
)

// TestReplayRefusesWhatTheWriterRefuses: each row is an op no writer
// journals, and every door refuses it alike. Where a request can express
// it, the server answers the status it always has and declares and
// journals nothing; State.Apply refuses it, leaving the state as it was;
// and Open refuses a journal that ends with it, leaving the store's files
// byte-identical.
func TestReplayRefusesWhatTheWriterRefuses(t *testing.T) {
	dir := t.TempDir()
	ts, l, w := ackServer(t, dir, intent.Options{})
	grants := func(req api.BatchRequest) (out []addr.IP) {
		var resp api.BatchResponse
		code, body := call(t, ts, "POST", "/v1/batch", req)
		if err := json.Unmarshal([]byte(body), &resp); code != http.StatusOK || err != nil {
			t.Fatalf("%s's batch: %d %s", req.Tenant, code, body)
		}
		for _, r := range resp.Results {
			a, _ := addr.ParseIP(r.Addr)
			out = append(out, a)
		}
		return out
	}
	vm := func(i int) string { return string(topo.HostID(w.CloudA, w.RegionsA[0], "az1", i)) }
	a := grants(api.BatchRequest{Tenant: "acme", Ops: []api.BatchOpRequest{{Op: "request_eip", VM: vm(1)}, {Op: "request_eip", VM: vm(2)},
		{Op: "request_sip", Provider: w.CloudB}, {Op: "bind", EIP: "$0", SIP: "$2"}, {Op: "register_name", Name: "db", Target: "$0"}}})
	g := grants(api.BatchRequest{Tenant: "globex", Ops: []api.BatchOpRequest{
		{Op: "request_eip", VM: string(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))}, {Op: "request_sip", Provider: w.CloudA}}})
	nobody, wide := a[0]+200, []addr.Prefix{addr.MustParsePrefix("10.0.0.0/8")}
	render := func(s *intent.State) string { b, _ := intent.RenderState(s); return string(b) }
	store := func(sdir string) string {
		j, _ := os.ReadFile(filepath.Join(sdir, "journal.log"))
		s, _ := os.ReadFile(filepath.Join(sdir, "snapshot.json"))
		return string(j) + "|" + string(s)
	}
	for i, r := range []struct {
		tenant string
		op     intent.Op
		path   string // a request that expresses op, if one does, its body and the status it answers
		body   any
		status int
	}{
		{"acme", intent.Op{Verb: intent.OpReleaseEIP, Addr: g[0]}, "/v1/eips/release", api.ReleaseRequest{Tenant: "acme", EIP: g[0].String()}, 409},
		{"acme", intent.Op{Verb: intent.OpRequestEIP, VM: vm(1), Provider: w.CloudA, Region: w.RegionsA[0], Addr: a[1]}, "", nil, 0},
		{"acme", intent.Op{Verb: intent.OpBind, EIP: a[0], SIP: g[1], Weight: 1}, "/v1/bind", api.BindRequest{Tenant: "acme", EIP: a[0].String(), SIP: g[1].String()}, 409},
		{"acme", intent.Op{Verb: intent.OpUnbind, EIP: a[1], SIP: a[2]}, "/v1/unbind", api.BindRequest{Tenant: "acme", EIP: a[1].String(), SIP: a[2].String()}, 409},
		{"acme", intent.Op{Verb: intent.OpSetPermit, Provider: w.CloudB, Target: g[0], Entries: wide}, "/v1/permit", api.PermitRequest{Tenant: "acme", Target: g[0].String(), Entries: []string{"10.0.0.0/8"}}, 409},
		{"acme", intent.Op{Verb: intent.OpPermit, Target: nobody, Entries: wide}, "/v1/batch", api.BatchRequest{Tenant: "acme", Ops: []api.BatchOpRequest{{Op: "permit", Target: nobody.String(), Entries: []string{"10.0.0.0/8"}}}}, 409},
		{"acme", intent.Op{Verb: intent.OpRevoke, Target: g[1], Entries: wide}, "/v1/batch", api.BatchRequest{Tenant: "acme", Ops: []api.BatchOpRequest{{Op: "revoke", Target: g[1].String(), Entries: []string{"10.0.0.0/8"}}}}, 409},
		{"acme", intent.Op{Verb: intent.OpSetQoS, Provider: w.CloudA, Region: w.RegionsA[0], Bps: math.NaN()}, "", nil, 0},
		{"acme", intent.Op{Verb: intent.OpSetQoS, Provider: w.CloudA, Region: w.RegionsA[0], Bps: -5}, "/v1/qos", api.QoSRequest{Tenant: "acme", Provider: w.CloudA, Region: w.RegionsA[0], Bandwidth: -5}, 409},
		{"acme", intent.Op{Verb: intent.OpSetVMEgress, EIP: a[0], Bps: math.Inf(1)}, "", nil, 0},
		{"acme", intent.Op{Verb: intent.OpCreateGroup, Name: "web", Members: []addr.IP{a[0], g[0]}}, "/v1/groups", api.GroupRequest{Tenant: "acme", Name: "web", Members: []string{a[0].String(), g[0].String()}}, 409},
		{"acme", intent.Op{Verb: intent.OpCreateGroup, Name: "web", Members: []addr.IP{nobody}}, "/v1/groups", api.GroupRequest{Tenant: "acme", Name: "web", Members: []string{nobody.String()}}, 409},
		{"acme", intent.Op{Verb: intent.OpRegisterName, Name: "db", Addr: g[1]}, "/v1/names", api.NameRequest{Tenant: "acme", Name: "db", Target: g[1].String()}, 409},
		{"acme", intent.Op{Verb: intent.OpUnregisterName, Name: "web"}, "", nil, 0},
		{"a|b", intent.Op{Verb: intent.OpRequestSIP, Provider: w.CloudA, Addr: g[1] + 1}, "/v1/sips", api.SIPRequest{Tenant: "a|b", Provider: w.CloudA}, 400},
	} {
		name := fmt.Sprintf("row %d (%s %s)", i, r.tenant, r.op.Verb)
		state, seq := render(l.State()), l.Seq()
		if r.path != "" {
			if code, body := call(t, ts, "POST", r.path, r.body); code != r.status || render(l.State()) != state || l.Seq() != seq {
				t.Errorf("%s: the server answered %d %s, want %d with nothing declared", name, code, body, r.status)
			}
		}
		st := l.State()
		if err := st.Apply(&intent.Record{Seq: seq + 1, Tenant: r.tenant, Ops: []intent.Op{r.op}}); err == nil || render(st) != state {
			t.Errorf("%s: replay folded it (error %v)", name, err)
		}
		sdir := t.TempDir()
		var sl *intent.Log
		journal, err := os.ReadFile(filepath.Join(dir, "journal.log"))
		if err == nil {
			err = os.WriteFile(filepath.Join(sdir, "journal.log"), journal, 0o644)
		}
		if err == nil {
			sl, err = intent.Open(sdir, intent.Options{})
		}
		if err == nil {
			err = intent.AppendUnchecked(sl, r.tenant, r.op)
			sl.Close()
		}
		if err != nil {
			t.Fatalf("%s: writing the store: %v", name, err)
		}
		before := store(sdir)
		if sl, err := intent.Open(sdir, intent.Options{}); err == nil {
			sl.Close()
			t.Errorf("%s: Open replayed it", name)
		} else if store(sdir) != before {
			t.Errorf("%s: Open refused it (%v) and changed the store", name, err)
		}
	}
}
