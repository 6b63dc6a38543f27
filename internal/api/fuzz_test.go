package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"declnet"
	"declnet/internal/addr"
	"declnet/internal/core"
	"declnet/internal/intent"
	"declnet/internal/qos"
)

// FuzzParsePermitEntry covers the wire-format permit entries tenants send
// through POST /v1/permit: CIDRs, or bare IPs promoted to /32s. Accepted
// entries must round-trip (modulo the implied /32) and behave as permit
// prefixes — a bare IP must permit exactly itself.
func FuzzParsePermitEntry(f *testing.F) {
	for _, seed := range []string{
		"1.2.3.4", "10.0.0.0/8", "0.0.0.0/0", "255.255.255.255",
		"", "/", "1.2.3.4/", "1.2.3.4/33", "0.0.0.0/+8",
		"+4.0.0.0", "-0.0.0.1", "01.2.3.4", "1.2.3.4/32/32",
		"8.8.8.8 ", "8.8.8.8\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePermitEntry(s)
		if err != nil {
			return
		}
		if p.Len < 0 || p.Len > 32 {
			t.Fatalf("ParsePermitEntry(%q) produced illegal length %d", s, p.Len)
		}
		if strings.Contains(s, "/") {
			if got := p.String(); got != s {
				t.Fatalf("ParsePermitEntry(%q) accepted CIDR, but String() = %q", s, got)
			}
			return
		}
		// Bare IP: must become that exact host's /32.
		ip, err := declnet.ParseIP(s)
		if err != nil {
			t.Fatalf("ParsePermitEntry(%q) accepted a bare entry ParseIP rejects", s)
		}
		if p.Len != 32 || p.Addr != ip {
			t.Fatalf("ParsePermitEntry(%q) = %s, want %s/32", s, p, ip)
		}
		if !p.Contains(ip) {
			t.Fatalf("ParsePermitEntry(%q): /32 does not permit its own host", s)
		}
	})
}

// TestParsePermitEntryAllocatesNothing: a valid entry, CIDR or bare IP,
// parses without allocating — the /v1/batch decoder parses every entry
// of a batch through it — and a bare IP is its /32 with the error text
// ParseIP gives.
func TestParsePermitEntryAllocatesNothing(t *testing.T) {
	for _, e := range []string{"10.1.0.0/16", "0.0.0.0/0", "10.2.0.9", "255.255.255.255"} {
		if n := testing.AllocsPerRun(100, func() { _, _ = ParsePermitEntry(e) }); n != 0 {
			t.Errorf("ParsePermitEntry(%q) allocates %.0f times", e, n)
		}
	}
	if p, err := ParsePermitEntry("10.2.0.9"); err != nil || p != addr.MustParsePrefix("10.2.0.9/32") {
		t.Errorf("ParsePermitEntry(10.2.0.9) = %v, %v", p, err)
	}
	_, err := ParsePermitEntry("10.2.0")
	if want := `addr: invalid IPv4 "10.2.0"`; err == nil || err.Error() != want {
		t.Errorf("ParsePermitEntry(10.2.0): error %v, want %s", err, want)
	}
}

// dirtyBody is a /v1/batch body that sets every op field, some of them
// to entries and policies that do not parse: the fuzzers decode each
// input into a batchBuf that has just decoded and reset it.
var dirtyBody = []byte(`{"tenant":"dirty","ops":[{"op":"set_potato","vm":"v","provider":"p","eip":"e","sip":"s","target":"t","weight":7,` +
	`"entries":["1.0.0.0/8","bad","3.0.0.0/8"],"groups":["g","h"],"region":"r","bandwidth_bps":5,"policy":"cold","name":"n","members":["m","k"]},` +
	`{"op":"permit","entries":["bad"]},{"op":"bind"}]}`)

// FuzzBatchDecode holds the /v1/batch decoder to encoding/json: on any
// body, it accepts exactly what json.Decoder with DisallowUnknownFields
// and the trailing-data check accepts for a BatchRequest, and what it
// yields — the tenant and every core.BatchOp, nil-versus-empty slices
// included — equals decoding that request and converting its ops
// (referenceOps), the first entry or policy error word for word. Each
// input is decoded into a batchBuf that has just decoded and reset a
// body setting every field, as a recycled one has.
func FuzzBatchDecode(f *testing.F) {
	for _, seed := range []string{
		`{"tenant":"acme","ops":[{"op":"request_eip","vm":"cloudA/a-east/az1/host1"},{"op":"set_permit","target":"$0","entries":["10.1.0.0/16","10.2.0.9"]}]}`,
		`{"tenant":"acme","ops":[{"op":"bind","eip":"$0","sip":"1.2.3.4","weight":2},{"op":"set_qos","provider":"cloudA","region":"a-east","bandwidth_bps":1e9}]}` + "\n",
		`{"tenant":"acme","ops":[{"op":"set_potato","provider":"cloudB","policy":"cold"},{"op":"create_group","name":"g","members":["$0","1.2.3.4"]},{"op":"set_permit","target":"$1","groups":["g"]}]}`,
		`{"tenant":"acme","ops":[{"op":"set_potato","policy":"lukewarm"},{"op":"permit","entries":["nope"]}]}`,
		`{"tenant":"acme","ops":[{"op":"permit","entries":["10.0.0.1/8"]},{"op":"set_potato"}]}`,
		// Escapes, NUL, invalid UTF-8.
		`{"tenant":"a\"c\\me\n","ops":[{"op":"request_eip","vm":"\u0000\ud800x"}]}`,
		"{\"tenant\":\"ac\xffme\",\"ops\":[{\"op\":\"register_name\",\"name\":\"caf\xc3\xa9\"}]}",
		`{"tenant":"acme","ops":[{"op":"permit","entries":["1.2.3.4"]}]}`,
		`{"tenant":"acme","ops":[{"op":"request_sip"}]}`,
		"{\"tenant\":\"a\x01\",\"ops\":[]}",
		`{"tenant":"a\x"}`,
		// Case-folded keys; ſ (U+017F) folds to S, K (U+212A) to K.
		`{"TENANT":"acme","Ops":[{"OP":"bind","EIP":"$0","ſip":"$1","Weight":3}]}`,
		`{"tenant":"acme","ops":[{"op":"request_sip","provider":"x","ſ":1}]}`,
		`{"tenant":"acme","ops":[{"op":"request_sip","bandwidth_bpſ":1}]}`,
		// Duplicate keys: the last wins, arrays decode into the slots
		// the earlier one held.
		`{"tenant":"a","tenant":"b","ops":[{"op":"bind","weight":3}],"ops":[{"op":"unbind"},null]}`,
		`{"tenant":"a","ops":[{"op":"permit","entries":["1.0.0.0/8","2.0.0.0/8"],"entries":["3.0.0.0/8"],"entries":["4.0.0.0/8",null]}]}`,
		`{"tenant":"a","ops":[{"op":"create_group","members":["a","b"],"members":["c",null,null]}]}`,
		`{"tenant":"a","ops":[{"op":"permit","entries":["bad"],"entries":["1.0.0.0/8"]}]}`,
		`{"tenant":"a","ops":[{"op":"permit","entries":["1.0.0.0/8"],"entries":["bad"]}]}`,
		`{"tenant":"a","ops":[{"op":"set_potato","policy":"bad","policy":"hot"},{"op":"x"}],"ops":[{"op":"bind"}],"ops":[null,null]}`,
		`{"tenant":"a","ops":[{"op":"create_group","groups":["a"],"groups":[],"groups":[null]}]}`,
		// null at every level.
		`null`,
		`{"tenant":null,"ops":null}`,
		`{"tenant":"a","ops":[null]}`,
		`{"tenant":"a","ops":[{"op":null,"vm":null,"weight":null,"bandwidth_bps":null,"entries":null,"groups":null,"members":null,"policy":null}]}`,
		`{"tenant":"a","ops":[{"op":"permit","entries":[null]}]}`,
		`{"tenant":"a","ops":[{"op":"create_group","members":[null,"x"]}]}`,
		// Weights and bandwidths at the edges of their parsers.
		`{"tenant":"a","ops":[{"op":"bind","weight":1e2}]}`,
		`{"tenant":"a","ops":[{"op":"bind","weight":-0}]}`,
		`{"tenant":"a","ops":[{"op":"bind","weight":1.0}]}`,
		`{"tenant":"a","ops":[{"op":"bind","weight":9223372036854775808}]}`,
		`{"tenant":"a","ops":[{"op":"bind","weight":-9223372036854775808}]}`,
		`{"tenant":"a","ops":[{"op":"bind","weight":"3"}]}`,
		`{"tenant":"a","ops":[{"op":"set_qos","bandwidth_bps":-0.5E-3}]}`,
		`{"tenant":"a","ops":[{"op":"set_qos","bandwidth_bps":1e400}]}`,
		`{"tenant":"a","ops":[{"op":"set_qos","bandwidth_bps":01}]}`,
		`{"tenant":"a","ops":[{"op":"set_qos","bandwidth_bps":-}]}`,
		// Wrong types and unknown fields, nested or not.
		`{"tenant":"a","ops":[{"op":"bind","extra":{"a":[1,{"b":null}]}}]}`,
		`{"tenant":"a","ops":[{"op":"bind"}],"meta":{"x":[]}}`,
		`{"tenant":"a","ops":[{"op":["bind"]}]}`,
		`{"tenant":"a","ops":[{"op":"bind","eip":true}]}`,
		`{"tenant":"a","ops":{"op":"bind"}}`,
		`{"tenant":"a","ops":[[]]}`,
		`{"tenant":"a","ops":["bind"]}`,
		`{"tenant":1}`,
		`[]`, `"acme"`, `0`, `true`, ``, ` `,
		// Trailing data, and trailing whitespace.
		`{"tenant":"a","ops":[{"op":"bind"}]} {"tenant":"b"}`,
		`{"tenant":"a","ops":[{"op":"bind"}]}x`,
		`{"tenant":"a","ops":[{"op":"bind"}]}]`,
		"{\"tenant\":\"a\",\"ops\":[{\"op\":\"bind\"}]} \t\r\n",
		// Syntax.
		`{"tenant":"a",}`, `{"tenant":"a","ops":[{"op":"bind"},]}`, `{"tenant" "a"}`,
		`{"tenant":"a"`, `{"tenant":"a","ops":[`, `{,}`, ` {} `, `nul`, `nullx`,
	} {
		f.Add([]byte(seed))
	}
	var b batchBuf
	f.Fuzz(func(t *testing.T, body []byte) {
		b.buf = append(b.buf[:0], dirtyBody...)
		if _, err := b.decode(); err != nil {
			t.Fatalf("the dirty body does not decode: %v", err)
		}
		b.reset()
		b.buf = append(b.buf[:0], body...)
		tenant, err := b.decode()
		var req BatchRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		want := dec.Decode(&req)
		if want == nil {
			if _, err := dec.Token(); err != io.EOF {
				want = fmt.Errorf("data after the value: %v", err)
			}
		}
		if (err == nil) != (want == nil) {
			t.Fatalf("%q: decode error %v, encoding/json's %v", body, err, want)
		}
		if err != nil {
			return
		}
		if tenant != req.Tenant {
			t.Fatalf("%q: tenant %q, encoding/json's %q", body, tenant, req.Tenant)
		}
		if len(b.ops) != len(req.Ops) {
			t.Fatalf("%q: %d ops, encoding/json's %d", body, len(b.ops), len(req.Ops))
		}
		if len(req.Ops) == 0 {
			return
		}
		err = b.finish()
		wantOps, want := referenceOps(req.Ops)
		if fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("%q: ops error %v, want %v", body, err, want)
		}
		if err == nil && !reflect.DeepEqual(b.ops, wantOps) {
			t.Fatalf("%q: ops\n%#v\nwant\n%#v", body, b.ops, wantOps)
		}
	})
}

// referenceOps converts decoded wire ops to core ops as /v1/batch did
// before its decoder: permit entries and potato policies parsed, the
// first failure rejecting the batch.
func referenceOps(ops []BatchOpRequest) ([]core.BatchOp, error) {
	out := make([]core.BatchOp, 0, len(ops))
	for i, o := range ops {
		op := core.BatchOp{Op: o.Op, VM: declnet.NodeID(o.VM), Provider: o.Provider, EIP: o.EIP, SIP: o.SIP,
			Target: o.Target, Weight: o.Weight, Groups: o.Groups, Region: o.Region, Bandwidth: o.Bandwidth,
			Name: o.Name, Members: o.Members, Entries: make([]addr.Prefix, 0, len(o.Entries))}
		for _, e := range o.Entries {
			p, err := ParsePermitEntry(e)
			if err != nil {
				return nil, fmt.Errorf("api: batch op %d (%s): %w", i, o.Op, err)
			}
			op.Entries = append(op.Entries, p)
		}
		if o.Op == intent.OpSetPotato {
			var err error
			if op.Policy, err = qos.ParsePotatoPolicy(o.Policy); err != nil {
				return nil, fmt.Errorf("api: batch op %d: unknown policy %q", i, o.Policy)
			}
		}
		out = append(out, op)
	}
	return out, nil
}

// FuzzRouteDecode holds the decoder to encoding/json on every single-verb
// route: on any body, it accepts exactly what json.Decoder with
// DisallowUnknownFields and the trailing-data check accepts for the
// route's request struct, and yields its tenant and the one core.BatchOp
// that struct spells (wireOp, then referenceRouteOp), the entry or
// policy error word for word. The fuzzer picks the route by index; each
// body is decoded into a batchBuf a /v1/batch body has just dirtied.
func FuzzRouteDecode(f *testing.F) {
	index := func(path string) uint8 {
		for i, r := range verbRoutes {
			if r.path == path {
				return uint8(i)
			}
		}
		f.Fatalf("no route %s", path)
		return 0
	}
	for _, seed := range []struct{ path, body string }{
		{"/v1/eips", `{"tenant":"acme","vm":"cloudA/a-east/az1/host1"}`},
		{"/v1/eips", `{"tenant":"acme","vm":""}`},
		{"/v1/eips", `{"tenant":"acme"}`},
		{"/v1/eips", `{"tenant":"acme","vm":"x","op":"release_eip"}`},
		{"/v1/eips/release", `{"tenant":"acme","eip":"100.64.0.1"}` + "\n"},
		{"/v1/eips/release", `{"tenant":"acme","eip":"$0"}`},
		{"/v1/sips", `{"tenant":"acme","provider":"nope"}`},
		{"/v1/sips", `{"tenant":"acme","provider":""}`},
		{"/v1/sips", `{"TENANT":"acme","Provider":"cloudA","provider":null}`},
		{"/v1/bind", `{"tenant":"acme","eip":"1.2.3.4","sip":"5.6.7.8","weight":3}`},
		{"/v1/bind", `{"tenant":"acme","eip":"1.2.3.4","ſip":"5.6.7.8","weight":1.5}`},
		{"/v1/unbind", `{"tenant":"acme","eip":"1.2.3.4","sip":"5.6.7.8","weight":2}`},
		{"/v1/permit", `{"tenant":"acme","target":"1.2.3.4","entries":["10.0.0.0/8","10.2.0.9"],"groups":["g"]}`},
		{"/v1/permit", `{"tenant":"acme","target":"1.2.3.4","entries":["zzz"]}`},
		{"/v1/permit", `{"tenant":"acme","entries":["bad"],"entries":["1.0.0.0/8",null]}`},
		{"/v1/permit", `{"tenant":"acme","entries":null,"groups":[]}`},
		{"/v1/qos", `{"tenant":"acme","provider":"nope","region":"r"}`},
		{"/v1/qos", `{"tenant":"acme","provider":"cloudA","region":"","bandwidth_bps":1e9}`},
		{"/v1/qos", `{"tenant":"acme","provider":"cloudA","region":"a-east","bandwidth_bps":"1e9"}`},
		{"/v1/potato", `{"tenant":"acme","provider":"cloudA","policy":"cold"}`},
		{"/v1/potato", `{"tenant":"acme","provider":"cloudA","policy":"lukewarm"}`},
		{"/v1/potato", `{"tenant":"acme","policy":"hot","policy":"bad"}`},
		{"/v1/groups", `{"tenant":"acme","name":"","members":["100.64.0.1"]}`},
		{"/v1/groups", `{"tenant":"acme","name":"web","members":["a","b"],"members":["c",null,null]}`},
		{"/v1/names", `{"tenant":"acme","name":"","target":"104.255.0.1"}`},
		{"/v1/names", `{"tenant":"acme","name":"db","target":"104.255.0.1"} {"tenant":"mallory"}`},
		{"/v1/names", `{"tenant":"acme","name":"db","bogus":1}`},
		{"/v1/names", `null`},
		{"/v1/names", `{"tenant":"a\"c\\me\n","name":"café"}`},
		{"/v1/names", `[]`},
	} {
		f.Add(index(seed.path), []byte(seed.body))
	}
	var b batchBuf
	f.Fuzz(func(t *testing.T, r uint8, body []byte) {
		vr := verbRoutes[int(r)%len(verbRoutes)]
		b.rt, b.buf = route{}, append(b.buf[:0], dirtyBody...)
		if _, err := b.decode(); err != nil {
			t.Fatalf("the dirty body does not decode: %v", err)
		}
		b.reset()
		b.rt = vr.route
		b.buf = append(b.buf[:0], body...)
		tenant, err := b.decode()
		wantTenant, wire, want := wireOp(vr.path, body)
		if (err == nil) != (want == nil) {
			t.Fatalf("%s %q: decode error %v, encoding/json's %v", vr.path, body, err, want)
		}
		if err != nil {
			return
		}
		if tenant != wantTenant {
			t.Fatalf("%s %q: tenant %q, encoding/json's %q", vr.path, body, tenant, wantTenant)
		}
		if len(b.ops) != 1 {
			t.Fatalf("%s %q: %d ops, want 1", vr.path, body, len(b.ops))
		}
		err = b.finish()
		wantOp, want := referenceRouteOp(wire)
		if fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("%s %q: op error %v, want %v", vr.path, body, err, want)
		}
		if err == nil && !reflect.DeepEqual(b.ops[0], wantOp) {
			t.Fatalf("%s %q: op\n%#v\nwant\n%#v", vr.path, body, b.ops[0], wantOp)
		}
	})
}

// wireOp decodes body as encoding/json does into the request struct of
// the single-verb route at path, and returns its tenant and the batch op
// it spells.
func wireOp(path string, body []byte) (string, BatchOpRequest, error) {
	strict := func(v any) error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err := dec.Decode(v)
		if err == nil {
			if _, err := dec.Token(); err != io.EOF {
				return fmt.Errorf("data after the value: %v", err)
			}
		}
		return err
	}
	switch path {
	case "/v1/eips":
		var r EIPRequest
		err := strict(&r)
		return r.Tenant, BatchOpRequest{Op: intent.OpRequestEIP, VM: r.VM}, err
	case "/v1/eips/release":
		var r ReleaseRequest
		err := strict(&r)
		return r.Tenant, BatchOpRequest{Op: intent.OpReleaseEIP, EIP: r.EIP}, err
	case "/v1/sips":
		var r SIPRequest
		err := strict(&r)
		return r.Tenant, BatchOpRequest{Op: intent.OpRequestSIP, Provider: r.Provider}, err
	case "/v1/bind", "/v1/unbind":
		var r BindRequest
		err := strict(&r)
		verb := intent.OpBind
		if path == "/v1/unbind" {
			verb = intent.OpUnbind
		}
		return r.Tenant, BatchOpRequest{Op: verb, EIP: r.EIP, SIP: r.SIP, Weight: r.Weight}, err
	case "/v1/permit":
		var r PermitRequest
		err := strict(&r)
		return r.Tenant, BatchOpRequest{Op: intent.OpSetPermit, Target: r.Target, Entries: r.Entries, Groups: r.Groups}, err
	case "/v1/qos":
		var r QoSRequest
		err := strict(&r)
		return r.Tenant, BatchOpRequest{Op: intent.OpSetQoS, Provider: r.Provider, Region: r.Region, Bandwidth: r.Bandwidth}, err
	case "/v1/potato":
		var r PotatoRequest
		err := strict(&r)
		return r.Tenant, BatchOpRequest{Op: intent.OpSetPotato, Provider: r.Provider, Policy: r.Policy}, err
	case "/v1/groups":
		var r GroupRequest
		err := strict(&r)
		return r.Tenant, BatchOpRequest{Op: intent.OpCreateGroup, Name: r.Name, Members: r.Members}, err
	case "/v1/names":
		var r NameRequest
		err := strict(&r)
		return r.Tenant, BatchOpRequest{Op: intent.OpRegisterName, Name: r.Name, Target: r.Target}, err
	}
	panic("no single-verb route " + path)
}

// referenceRouteOp converts a single-verb route's op as referenceOps
// does a batch's, its error without the batch's "batch op 0" prefix.
func referenceRouteOp(o BatchOpRequest) (core.BatchOp, error) {
	ops, err := referenceOps([]BatchOpRequest{o})
	switch {
	case err == nil:
		return ops[0], nil
	case errors.Unwrap(err) != nil: // a permit entry's
		return core.BatchOp{}, errors.Unwrap(err)
	}
	return core.BatchOp{}, fmt.Errorf("api: unknown policy %q", o.Policy)
}
