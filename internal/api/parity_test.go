package api

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"declnet"
	"declnet/internal/intent"
)

// parityWorld is one fresh intent-enabled world plus the fixture every
// parity case starts from. Worlds share a seed, so the fixture's
// addresses are identical across them.
type parityWorld struct {
	w   *declnet.World
	ts  *httptest.Server
	dir string

	vm            string      // a free VM for request_eip
	eip1, eip2    declnet.EIP // eip1 is bound to sip and permits eip2
	scratch       declnet.EIP // released by release_eip
	sip, scratch2 declnet.SIP // scratch2 is released by release_sip
}

func newParityWorld(t *testing.T) *parityWorld {
	t.Helper()
	w, err := declnet.NewFig1World(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	pw := &parityWorld{w: w, dir: t.TempDir()}
	l, err := intent.Open(pw.dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	w.EnableIntent(l)
	pw.ts = httptest.NewServer(NewServer(w))
	t.Cleanup(pw.ts.Close)

	f, acme := w.Fig1, w.Tenant("acme")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	eip := func(zone string, host int) declnet.EIP {
		a, err := acme.RequestEIP(w.Host(f.CloudA, f.RegionsA[0], zone, host))
		must(err)
		return a
	}
	pw.eip1, pw.eip2, pw.scratch = eip("az1", 1), eip("az1", 2), eip("az2", 1)
	pw.vm = string(w.Host(f.CloudA, f.RegionsA[0], "az2", 2))
	pw.sip, err = acme.RequestSIP(f.CloudA)
	must(err)
	pw.scratch2, err = acme.RequestSIP(f.CloudA)
	must(err)
	must(acme.Bind(pw.eip1, pw.sip, 1))
	must(acme.SetPermitList(pw.eip1, []declnet.Prefix{declnet.Exact(pw.eip2)}))
	return pw
}

// lastRecord returns the journal's newest record with its seq zeroed,
// as JSON, plus the record count.
func (pw *parityWorld) lastRecord(t *testing.T) (string, int) {
	t.Helper()
	f, err := os.Open(filepath.Join(pw.dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, _, err := intent.DecodeJournal(f)
	if err != nil || len(recs) == 0 {
		t.Fatalf("decoding journal: %d records, err %v", len(recs), err)
	}
	last := recs[len(recs)-1]
	last.Seq = 0
	buf, err := json.Marshal(last)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf), len(recs)
}

// TestVerbPathParity applies each batch verb through the Go facade, its
// single-verb HTTP route (where one exists) and a one-op /v1/batch, on
// three fresh worlds, and requires the same journal record and the same
// state digest from all of them: there is one verb path, and the three
// front doors only differ in how they spell the op.
func TestVerbPathParity(t *testing.T) {
	const cloudA = "cloudA"
	cases := []struct {
		verb   string
		facade func(pw *parityWorld, acme *declnet.Tenant) error
		route  string // "" when the verb has no single-verb route
		body   func(pw *parityWorld) any
		batch  func(pw *parityWorld) BatchOpRequest
	}{
		{"request_eip",
			func(pw *parityWorld, acme *declnet.Tenant) error {
				_, err := acme.RequestEIP(declnet.NodeID(pw.vm))
				return err
			},
			"/v1/eips", func(pw *parityWorld) any { return EIPRequest{Tenant: "acme", VM: pw.vm} },
			func(pw *parityWorld) BatchOpRequest { return BatchOpRequest{Op: "request_eip", VM: pw.vm} }},
		{"release_eip",
			func(pw *parityWorld, acme *declnet.Tenant) error { return acme.ReleaseEIP(pw.scratch) },
			"/v1/eips/release", func(pw *parityWorld) any { return ReleaseRequest{Tenant: "acme", EIP: pw.scratch.String()} },
			func(pw *parityWorld) BatchOpRequest {
				return BatchOpRequest{Op: "release_eip", EIP: pw.scratch.String()}
			}},
		{"request_sip",
			func(pw *parityWorld, acme *declnet.Tenant) error {
				_, err := acme.RequestSIP(cloudA)
				return err
			},
			"/v1/sips", func(pw *parityWorld) any { return SIPRequest{Tenant: "acme", Provider: cloudA} },
			func(pw *parityWorld) BatchOpRequest { return BatchOpRequest{Op: "request_sip", Provider: cloudA} }},
		{"release_sip",
			func(pw *parityWorld, acme *declnet.Tenant) error { return acme.ReleaseSIP(pw.scratch2) },
			"", nil,
			func(pw *parityWorld) BatchOpRequest {
				return BatchOpRequest{Op: "release_sip", SIP: pw.scratch2.String()}
			}},
		{"bind",
			func(pw *parityWorld, acme *declnet.Tenant) error { return acme.Bind(pw.eip2, pw.sip, 3) },
			"/v1/bind", func(pw *parityWorld) any {
				return BindRequest{Tenant: "acme", EIP: pw.eip2.String(), SIP: pw.sip.String(), Weight: 3}
			},
			func(pw *parityWorld) BatchOpRequest {
				return BatchOpRequest{Op: "bind", EIP: pw.eip2.String(), SIP: pw.sip.String(), Weight: 3}
			}},
		{"unbind",
			func(pw *parityWorld, acme *declnet.Tenant) error { return acme.Unbind(pw.eip1, pw.sip) },
			"/v1/unbind", func(pw *parityWorld) any {
				return BindRequest{Tenant: "acme", EIP: pw.eip1.String(), SIP: pw.sip.String()}
			},
			func(pw *parityWorld) BatchOpRequest {
				return BatchOpRequest{Op: "unbind", EIP: pw.eip1.String(), SIP: pw.sip.String()}
			}},
		{"set_permit",
			func(pw *parityWorld, acme *declnet.Tenant) error {
				return acme.SetPermitList(pw.sip, []declnet.Prefix{declnet.Entry("10.0.0.0/8"), declnet.Exact(pw.eip2)})
			},
			"/v1/permit", func(pw *parityWorld) any {
				return PermitRequest{Tenant: "acme", Target: pw.sip.String(), Entries: []string{"10.0.0.0/8", pw.eip2.String()}}
			},
			func(pw *parityWorld) BatchOpRequest {
				return BatchOpRequest{Op: "set_permit", Target: pw.sip.String(), Entries: []string{"10.0.0.0/8", pw.eip2.String()}}
			}},
		{"permit",
			func(pw *parityWorld, acme *declnet.Tenant) error {
				return acme.Permit(pw.eip1, declnet.Entry("10.0.0.0/8"))
			},
			"", nil,
			func(pw *parityWorld) BatchOpRequest {
				return BatchOpRequest{Op: "permit", Target: pw.eip1.String(), Entries: []string{"10.0.0.0/8"}}
			}},
		{"revoke",
			func(pw *parityWorld, acme *declnet.Tenant) error {
				return acme.Revoke(pw.eip1, declnet.Exact(pw.eip2))
			},
			"", nil,
			func(pw *parityWorld) BatchOpRequest {
				return BatchOpRequest{Op: "revoke", Target: pw.eip1.String(), Entries: []string{pw.eip2.String()}}
			}},
		{"set_qos",
			func(pw *parityWorld, acme *declnet.Tenant) error {
				return acme.SetQoS(cloudA, pw.w.Fig1.RegionsA[0], 2e9)
			},
			"/v1/qos", func(pw *parityWorld) any {
				return QoSRequest{Tenant: "acme", Provider: cloudA, Region: pw.w.Fig1.RegionsA[0], Bandwidth: 2e9}
			},
			func(pw *parityWorld) BatchOpRequest {
				return BatchOpRequest{Op: "set_qos", Provider: cloudA, Region: pw.w.Fig1.RegionsA[0], Bandwidth: 2e9}
			}},
		{"set_potato",
			func(pw *parityWorld, acme *declnet.Tenant) error { return acme.SetPotato(cloudA, declnet.ColdPotato) },
			"/v1/potato", func(pw *parityWorld) any { return PotatoRequest{Tenant: "acme", Provider: cloudA, Policy: "cold"} },
			func(pw *parityWorld) BatchOpRequest {
				return BatchOpRequest{Op: "set_potato", Provider: cloudA, Policy: "cold"}
			}},
		{"create_group",
			func(pw *parityWorld, acme *declnet.Tenant) error { return acme.CreateGroup("web", pw.eip1, pw.eip2) },
			"/v1/groups", func(pw *parityWorld) any {
				return GroupRequest{Tenant: "acme", Name: "web", Members: []string{pw.eip1.String(), pw.eip2.String()}}
			},
			func(pw *parityWorld) BatchOpRequest {
				return BatchOpRequest{Op: "create_group", Name: "web", Members: []string{pw.eip1.String(), pw.eip2.String()}}
			}},
		{"register_name",
			func(pw *parityWorld, acme *declnet.Tenant) error { return acme.Register("db", pw.sip) },
			"/v1/names", func(pw *parityWorld) any { return NameRequest{Tenant: "acme", Name: "db", Target: pw.sip.String()} },
			func(pw *parityWorld) BatchOpRequest {
				return BatchOpRequest{Op: "register_name", Name: "db", Target: pw.sip.String()}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.verb, func(t *testing.T) {
			type outcome struct{ record, digest string }
			run := func(path string, apply func(pw *parityWorld)) outcome {
				pw := newParityWorld(t)
				_, before := pw.lastRecord(t)
				apply(pw)
				record, after := pw.lastRecord(t)
				if after != before+1 {
					t.Fatalf("%s: journal grew by %d records, want 1", path, after-before)
				}
				return outcome{record, pw.w.StateDigest()}
			}
			want := run("facade", func(pw *parityWorld) {
				if err := tc.facade(pw, pw.w.Tenant("acme")); err != nil {
					t.Fatalf("facade: %v", err)
				}
			})
			if tc.route != "" {
				got := run(tc.route, func(pw *parityWorld) {
					if code := post(t, pw.ts, tc.route, tc.body(pw), nil); code != 200 {
						t.Fatalf("POST %s status %d", tc.route, code)
					}
				})
				if got != want {
					t.Errorf("POST %s diverges from the facade:\n got %+v\nwant %+v", tc.route, got, want)
				}
			}
			got := run("/v1/batch", func(pw *parityWorld) {
				req := BatchRequest{Tenant: "acme", Ops: []BatchOpRequest{tc.batch(pw)}}
				if code := post(t, pw.ts, "/v1/batch", req, nil); code != 200 {
					t.Fatalf("POST /v1/batch status %d", code)
				}
			})
			if got != want {
				t.Errorf("one-op /v1/batch diverges from the facade:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
