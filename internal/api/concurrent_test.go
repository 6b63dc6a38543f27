package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"declnet/internal/addr"
	"declnet/internal/core"
	"declnet/internal/permit"
)

// TestConcurrentReadPlane hammers every read-only endpoint from many
// goroutines while everything that writes the world runs beside it: a
// fault/heal writer advancing the engine (advance_ms), transfers starting
// flows and running them to completion, a tenant looping batches, forced
// sweeps and the background reconciler. Run under -race this is the proof
// that core's gate is the only one needed: the engine steps of fail,
// heal and transfer hold the world still through it, and everything else
// serializes on shards and leaf locks — probes advance balancer WRR state
// and draw from the engine RNG, explains trace and consult the path
// cache, metrics sample engine gauges, all concurrently.
func TestConcurrentReadPlane(t *testing.T) {
	ts, w, _ := newPersistentServer(t, core.ReconcilerConfig{Interval: time.Millisecond})
	rec := w.Reconciler()
	rec.Start()
	t.Cleanup(rec.Stop)
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
	if code := post(t, ts, "/v1/permit", PermitRequest{Tenant: "acme",
		Target: sip.SIP, Entries: []string{client.EIP + "/32"}}, nil); code != 200 {
		t.Fatal("permit failed")
	}

	reads := []string{
		fmt.Sprintf("/v1/probe?tenant=acme&src=%s&dst=%s", client.EIP, sip.SIP),
		fmt.Sprintf("/v1/explain?tenant=acme&src=%s&dst=%s", client.EIP, sip.SIP),
		"/v1/trace?tenant=acme",
		"/v1/metrics",
		"/v1/status",
		"/v1/reconcile",
	}
	const readers, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, (readers+5)*rounds)
	call := func(method, url string, body []byte) {
		var resp *http.Response
		var err error
		if method == http.MethodGet {
			resp, err = http.Get(ts.URL + url)
		} else {
			resp, err = http.Post(ts.URL+url, "application/json", bytes.NewReader(body))
		}
		if err != nil {
			errs <- err
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errs <- fmt.Errorf("%s %s: status %d", method, url, resp.StatusCode)
		}
	}
	repeat := func(step func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				step(i)
			}
		}()
	}
	for g := 0; g < readers; g++ {
		repeat(func(i int) { call(http.MethodGet, reads[(g+i)%len(reads)], nil) })
	}
	// A far-away host flaps, and each step advances the engine so the
	// health sweep runs and the path-cache epoch churns under the readers.
	node := string(w.Host(f.CloudA, f.RegionsA[1], "az1", 1))
	for _, verb := range []string{"/v1/fail", "/v1/heal"} {
		body := []byte(`{"kind":"node","target":"` + node + `","advance_ms":100}`)
		repeat(func(int) { call(http.MethodPost, verb, body) })
	}
	transfer, _ := json.Marshal(TransferRequest{Tenant: "acme", Src: client.EIP, Dst: sip.SIP, Bytes: 1e6})
	repeat(func(int) { call(http.MethodPost, "/v1/transfer", transfer) })
	batch, _ := json.Marshal(BatchRequest{Tenant: "noisy", Ops: []BatchOpRequest{
		{Op: "request_eip", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 2))},
		{Op: "request_sip", Provider: f.CloudA},
		{Op: "bind", EIP: "$0", SIP: "$1"},
		{Op: "set_permit", Target: "$0", Entries: []string{"10.0.0.0/8"}},
		{Op: "release_sip", SIP: "$1"},
		{Op: "release_eip", EIP: "$0"},
	}})
	repeat(func(int) { call(http.MethodPost, "/v1/batch", batch) })
	repeat(func(int) { call(http.MethodPost, "/v1/reconcile/sweep", []byte("{}")) })
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hits := w.Cloud.Router().Hits(); hits == 0 {
		t.Error("path cache served no hits under concurrent probes")
	}
	// Nothing injected drift, so no sweep may have found any.
	if s := rec.Status(); s.Repairs != 0 || s.DriftPermits+s.DriftBinds+s.DriftQuotas != 0 {
		t.Errorf("sweeps repaired %d divergences with no drift injected: %+v", s.Repairs, s)
	}
}

// TestConcurrentCrossShardWritePlane is the cross-shard extension of the
// read-plane test above: writers mutate disjoint (tenant, region) shards
// directly through the core API while cross-shard probes and HTTP readers run against both
// shards the whole time. It asserts the two properties the sharded
// control plane owes us: no deadlock (the deterministic two-shard lock
// order means the test completes) and no lost updates (every permit
// entry each writer added is enforceable afterwards).
func TestConcurrentCrossShardWritePlane(t *testing.T) {
	ts, w := newTestServer(t)
	f := w.Fig1
	c := w.Cloud

	// Tenant "mesh" spans both clouds: src in cloudA/r0, dst in cloudB/r1 —
	// two shards, so every probe takes the cross-shard read path.
	src, err := c.Tenant("mesh").RequestEIP(w.Host(f.CloudA, f.RegionsA[0], "az1", 2))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := c.Tenant("mesh").RequestEIP(w.Host(f.CloudB, f.RegionsB[1], "az1", 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("mesh").SetPermitList(dst, []permit.Entry{addr.NewPrefix(src, 32)}); err != nil {
		t.Fatal(err)
	}

	// Storm writers get their own tenants so each mutates a shard nobody
	// else touches: (storm-a, cloudA/r1), (storm-b, cloudB/r0), and
	// (storm-h, cloudA/r0) for the HTTP-level writer.
	ta, err := c.Tenant("storm-a").RequestEIP(w.Host(f.CloudA, f.RegionsA[1], "az2", 1))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := c.Tenant("storm-b").RequestEIP(w.Host(f.CloudB, f.RegionsB[0], "az2", 1))
	if err != nil {
		t.Fatal(err)
	}
	th, err := c.Tenant("storm-h").RequestEIP(w.Host(f.CloudA, f.RegionsA[0], "az2", 2))
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 150
	var wg sync.WaitGroup
	errs := make(chan error, 8*rounds)
	// Writer A: permit churn plus grant/release cycles in its own shard.
	wg.Add(1)
	go func() {
		defer wg.Done()
		vm := w.Host(f.CloudA, f.RegionsA[1], "az2", 2)
		for i := 0; i < rounds; i++ {
			if err := c.Tenant("storm-a").Permit(ta, addr.NewPrefix(addr.IP(0x0a010000+uint32(i)), 32)); err != nil {
				errs <- fmt.Errorf("storm-a permit %d: %v", i, err)
				return
			}
			eip, err := c.Tenant("storm-a").RequestEIP(vm)
			if err != nil {
				errs <- fmt.Errorf("storm-a grant %d: %v", i, err)
				return
			}
			if err := c.Tenant("storm-a").ReleaseEIP(eip); err != nil {
				errs <- fmt.Errorf("storm-a release %d: %v", i, err)
				return
			}
		}
	}()
	// Writer B: the same storm in a different tenant's shard on the other
	// provider.
	wg.Add(1)
	go func() {
		defer wg.Done()
		vm := w.Host(f.CloudB, f.RegionsB[0], "az2", 2)
		for i := 0; i < rounds; i++ {
			if err := c.Tenant("storm-b").Permit(tb, addr.NewPrefix(addr.IP(0x0a020000+uint32(i)), 32)); err != nil {
				errs <- fmt.Errorf("storm-b permit %d: %v", i, err)
				return
			}
			eip, err := c.Tenant("storm-b").RequestEIP(vm)
			if err != nil {
				errs <- fmt.Errorf("storm-b grant %d: %v", i, err)
				return
			}
			if err := c.Tenant("storm-b").ReleaseEIP(eip); err != nil {
				errs <- fmt.Errorf("storm-b release %d: %v", i, err)
				return
			}
		}
	}()
	// Cross-shard probes in both directions while the writers storm.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if !c.Admitted(src, dst) {
					errs <- fmt.Errorf("cross-shard verdict lost at %d", i)
					return
				}
				if _, _, err := c.Tenant("mesh").Probe(src, dst); err != nil {
					errs <- fmt.Errorf("cross-shard probe %d: %v", i, err)
					return
				}
			}
		}()
	}
	// HTTP-level mutation storm: these POSTs run concurrently with each
	// other, with the core writers above, and with every reader below.
	// /v1/permit replaces the list wholesale, so round i posts entries
	// [0..i] and the final list carries everything.
	wg.Add(1)
	go func() {
		defer wg.Done()
		entries := make([]string, 0, rounds)
		for i := 0; i < rounds; i++ {
			entries = append(entries, addr.IP(0x0a030000+uint32(i)).String()+"/32")
			body, err := json.Marshal(PermitRequest{Tenant: "storm-h", Target: th.String(),
				Entries: append([]string(nil), entries...)})
			if err != nil {
				errs <- err
				return
			}
			resp, err := http.Post(ts.URL+"/v1/permit", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("POST /v1/permit round %d: status %d", i, resp.StatusCode)
				return
			}
		}
	}()
	// HTTP readers ride along so the API read plane sees the same storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		urls := []string{
			fmt.Sprintf("/v1/explain?tenant=mesh&src=%s&dst=%s", src, dst),
			"/v1/status",
			"/v1/metrics",
		}
		for i := 0; i < rounds; i++ {
			resp, err := http.Get(ts.URL + urls[i%len(urls)])
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("GET %s: status %d", urls[i%len(urls)], resp.StatusCode)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// No lost updates: every permit entry either writer added is
	// enforceable now that the storm is over.
	for i := 0; i < rounds; i++ {
		if !c.Admitted(addr.IP(0x0a010000+uint32(i)), ta) {
			t.Fatalf("storm-a entry %d lost", i)
		}
		if !c.Admitted(addr.IP(0x0a020000+uint32(i)), tb) {
			t.Fatalf("storm-b entry %d lost", i)
		}
		if !c.Admitted(addr.IP(0x0a030000+uint32(i)), th) {
			t.Fatalf("storm-h (HTTP) entry %d lost", i)
		}
	}
	if got := c.Shards().Len(); got < 3 {
		t.Errorf("expected >= 3 materialized shards, got %d", got)
	}
}
