package core

import (
	"errors"
	"strings"
	"testing"

	"declnet/internal/addr"
	"declnet/internal/permit"
	"declnet/internal/topo"
)

// TestApplyBatchOnboarding drives the headline use case: one batch that
// requests addresses, wires bindings and permits through back-references,
// and names the service — then verifies the datapath works, the graph
// epoch never moved, and the new list carries one version bump.
func TestApplyBatchOnboarding(t *testing.T) {
	c, w, _, _, _ := fig1Cloud(t)
	ge0 := c.G.Epoch()

	be1 := topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1)
	be2 := topo.HostID(w.CloudB, w.RegionsB[0], "az2", 1)
	client := topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)
	results, err := c.ApplyBatch("acme", []BatchOp{
		{Op: "request_eip", VM: client},         // $0
		{Op: "request_eip", VM: be1},            // $1
		{Op: "request_eip", VM: be2},            // $2
		{Op: "request_sip", Provider: w.CloudB}, // $3
		{Op: "bind", EIP: "$1", SIP: "$3", Weight: 2},
		{Op: "bind", EIP: "$2", SIP: "$3"},
		{Op: "set_permit", Target: "$3", Entries: []permit.Entry{addr.MustParsePrefix("0.0.0.0/0")}},
		{Op: "register_name", Name: "db", Target: "$3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("got %d results, want 8", len(results))
	}
	for i := 0; i < 4; i++ {
		if results[i].Addr == 0 {
			t.Fatalf("op %d granted no address", i)
		}
	}
	if got := c.G.Epoch(); got != ge0 {
		t.Fatalf("graph epoch moved (%d -> %d) on a graph-free batch", ge0, got)
	}
	sip := results[3].Addr
	pb, ok := c.ProviderOf(sip)
	if !ok {
		t.Fatalf("SIP %s has no provider", sip)
	}
	if d := pb.Permits.Explain(0, sip); !d.HasList || d.Version != 1 {
		t.Fatalf("permit list after batch: %+v, want an installed list at version 1", d)
	}
	if ip, ok := c.Tenant("acme").Resolve("db"); !ok || ip != sip {
		t.Fatalf("Resolve(db) = %s/%v, want %s", ip, ok, sip)
	}
	if err := connect(c, "acme", results[0].Addr, sip); err != nil {
		t.Fatalf("Connect after batch onboarding: %v", err)
	}
}

// TestApplyBatchValidationRejectsWholesale: any statically detectable
// defect rejects the batch before anything is applied.
func TestApplyBatchValidationRejectsWholesale(t *testing.T) {
	c, w, pa, _, _ := fig1Cloud(t)
	vm := topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)
	cases := []struct {
		name string
		ops  []BatchOp
		want string
	}{
		{"unknown op", []BatchOp{{Op: "frobnicate"}}, "unknown op"},
		{"missing vm", []BatchOp{{Op: "request_eip"}}, "missing vm"},
		{"bad address", []BatchOp{{Op: "release_eip", EIP: "not-an-ip"}}, "eip"},
		{"forward ref", []BatchOp{
			{Op: "bind", EIP: "$1", SIP: "$1"},
			{Op: "request_sip", Provider: w.CloudA},
		}, "earlier op"},
		{"ref to non-grant", []BatchOp{
			{Op: "release_eip", EIP: "100.64.0.1"},
			{Op: "bind", EIP: "$1", SIP: "$1"},
		}, "not an address grant"},
		{"unknown provider", []BatchOp{{Op: "request_sip", Provider: "azure"}}, "unknown provider"},
		{"missing entries", []BatchOp{{Op: "permit", Target: "100.64.0.1"}}, "missing entries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Lead with a valid op to prove even it is not applied.
			ops := append([]BatchOp{{Op: "request_eip", VM: vm}}, tc.ops...)
			results, err := c.ApplyBatch("acme", ops)
			if err == nil || results != nil {
				t.Fatalf("ApplyBatch = (%v, %v), want rejection with nil results", results, err)
			}
			var be *BatchError
			if !errors.As(err, &be) {
				t.Fatalf("error %T is not *BatchError", err)
			}
			if be.Index == 0 {
				t.Fatalf("validation blamed op 0 (the valid one): %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if n := pa.EndpointCount(); n != 0 {
				t.Fatalf("rejected batch granted %d endpoints", n)
			}
		})
	}
}

// TestApplyBatchPartialFailure: a runtime failure mid-batch stops the
// batch, reports the failing index, and leaves earlier ops applied.
func TestApplyBatchPartialFailure(t *testing.T) {
	c, w, pa, _, _ := fig1Cloud(t)
	vm := topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)
	results, err := c.ApplyBatch("acme", []BatchOp{
		{Op: "request_eip", VM: vm},
		{Op: "request_eip", VM: "ghost"}, // passes validation, fails at apply
		{Op: "request_sip", Provider: w.CloudA},
	})
	if err == nil {
		t.Fatal("batch with unknown VM succeeded")
	}
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 || be.Op != "request_eip" {
		t.Fatalf("error %v, want *BatchError at index 1", err)
	}
	if len(results) != 1 || results[0].Addr == 0 {
		t.Fatalf("partial results %v, want the one applied grant", results)
	}
	// The applied prefix stays applied: the EIP resolves and is owned.
	if p, ok := c.ProviderOf(results[0].Addr); !ok || p != pa {
		t.Fatalf("granted EIP %s no longer resolves to its provider", results[0].Addr)
	}
	if n := pa.EndpointCount(); n != 1 {
		t.Fatalf("endpoint count %d, want 1 (op 0 applied, op 2 never ran)", n)
	}
}

// TestApplyBatchMidBatchAddressView: releases inside a batch are visible
// to later ops in the same batch — the provider-of-address cache must
// not serve entries that predate a mid-batch mutation.
func TestApplyBatchMidBatchAddressView(t *testing.T) {
	c, w, _, _, _ := fig1Cloud(t)
	vm := topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)
	eip, err := c.Tenant("acme").RequestEIP(vm)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the provider-of-address cache on the live grant.
	if _, ok := c.ProviderOf(eip); !ok {
		t.Fatalf("EIP %s does not resolve", eip)
	}
	results, err := c.ApplyBatch("acme", []BatchOp{
		{Op: "release_eip", EIP: eip.String()},
		{Op: "register_name", Name: "gone", Target: eip.String()},
	})
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("op against a just-released address: err %v results %v, want failure at index 1", err, results)
	}
	if !strings.Contains(err.Error(), "not a granted address") {
		t.Fatalf("error %q does not name the stale address", err)
	}
}
