package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"declnet"
	"declnet/internal/topo"
)

func TestFailHealEndpoints(t *testing.T) {
	ts, w := newTestServer(t)
	fig := w.Fig1

	node := string(topo.HostID(fig.CloudB, fig.RegionsB[0], "az1", 1))
	var resp FaultResponse
	if code := post(t, ts, "/v1/fail", map[string]any{"kind": "node", "target": node}, &resp); code != http.StatusOK {
		t.Fatalf("fail node: status %d", code)
	}
	if resp.NodeFailures != 1 {
		t.Fatalf("NodeFailures = %d, want 1", resp.NodeFailures)
	}
	if w.Faults().Inj.NodeUp(topo.NodeID(node)) {
		t.Fatal("node should be down after /v1/fail")
	}
	if code := post(t, ts, "/v1/heal", map[string]any{"kind": "node", "target": node, "advance_ms": 100.0}, &resp); code != http.StatusOK {
		t.Fatalf("heal node: status %d", code)
	}
	if resp.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", resp.Recoveries)
	}
	if !w.Faults().Inj.NodeUp(topo.NodeID(node)) {
		t.Fatal("node should be up after /v1/heal")
	}

	// Region verbs take provider/region targets.
	region := fig.CloudA + "/" + fig.RegionsA[0]
	if code := post(t, ts, "/v1/fail", map[string]any{"kind": "region", "target": region}, &resp); code != http.StatusOK {
		t.Fatalf("fail region: status %d", code)
	}
	if resp.RegionFailures != 1 {
		t.Fatalf("RegionFailures = %d, want 1", resp.RegionFailures)
	}
	if code := post(t, ts, "/v1/heal", map[string]any{"kind": "region", "target": region}, &resp); code != http.StatusOK {
		t.Fatalf("heal region: status %d", code)
	}

	// Bad kinds and unknown targets are client errors.
	if code := post(t, ts, "/v1/fail", map[string]any{"kind": "volcano", "target": "x"}, nil); code != http.StatusConflict {
		t.Fatalf("bad kind: status %d, want 409", code)
	}
	if code := post(t, ts, "/v1/fail", map[string]any{"kind": "node", "target": "no-such-node"}, nil); code != http.StatusConflict {
		t.Fatalf("unknown node: status %d, want 409", code)
	}
}

func TestFailoverThroughAPI(t *testing.T) {
	ts, w := newTestServer(t)
	fig := w.Fig1
	_ = declnet.DefaultFaultPolicy() // exercised via first /v1/fail

	// Tenant sets up a SIP with two backends and permits a client.
	var eipResp EIPResponse
	post(t, ts, "/v1/eips", map[string]any{"tenant": "t", "vm": string(topo.HostID(fig.CloudB, fig.RegionsB[0], "az1", 1))}, &eipResp)
	be1 := eipResp.EIP
	post(t, ts, "/v1/eips", map[string]any{"tenant": "t", "vm": string(topo.HostID(fig.CloudB, fig.RegionsB[0], "az2", 1))}, &eipResp)
	be2 := eipResp.EIP
	post(t, ts, "/v1/eips", map[string]any{"tenant": "t", "vm": string(topo.HostID(fig.CloudA, fig.RegionsA[0], "az1", 1))}, &eipResp)
	client := eipResp.EIP
	var sipResp SIPResponse
	post(t, ts, "/v1/sips", map[string]any{"tenant": "t", "provider": fig.CloudB}, &sipResp)
	for _, be := range []string{be1, be2} {
		if code := post(t, ts, "/v1/bind", map[string]any{"tenant": "t", "eip": be, "sip": sipResp.SIP, "weight": 1}, nil); code != http.StatusOK {
			t.Fatalf("bind %s: status %d", be, code)
		}
	}
	post(t, ts, "/v1/permit", map[string]any{"tenant": "t", "target": sipResp.SIP, "entries": []string{client}}, nil)

	// Kill be1's host and advance past the detect delay: the monitor must
	// have failed the SIP over (one failover, no tenant calls).
	var resp FaultResponse
	node := string(topo.HostID(fig.CloudB, fig.RegionsB[0], "az1", 1))
	if code := post(t, ts, "/v1/fail", map[string]any{"kind": "node", "target": node, "advance_ms": 2000.0}, &resp); code != http.StatusOK {
		t.Fatalf("fail: status %d", code)
	}
	if resp.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1 after advancing past detect delay", resp.Failovers)
	}
	// Transfers through the SIP keep working off the survivor.
	var tr TransferResponse
	if code := post(t, ts, "/v1/transfer", map[string]any{"tenant": "t", "src": client, "dst": sipResp.SIP, "bytes": 1e6}, &tr); code != http.StatusOK {
		t.Fatalf("transfer during failure: status %d", code)
	}
	if tr.FCTMillis <= 0 {
		t.Fatal("transfer did not complete")
	}
}

// TestConcurrentDeferredPermits: once faults are on, /v1/permit calls
// from different tenants run side by side on their own shards, and
// every one aimed at a failed region defers into the fault monitor.
// Under -race this is the proof that the monitor's pending map, its
// retry counter and the engine's event queue are guarded against each
// other and against the readers beside them (explain's pending check,
// the deferred and retry gauges on /v1/metrics). Once the region heals,
// every target carries its tenant's last request.
func TestConcurrentDeferredPermits(t *testing.T) {
	ts, w := newTestServer(t)
	f := w.Fig1
	const tenants, rounds = 8, 16
	clients, targets := make([]string, tenants), make([]string, tenants)
	for i := range tenants {
		tenant := fmt.Sprintf("t%d", i)
		var cl, tg EIPResponse
		post(t, ts, "/v1/eips", EIPRequest{Tenant: tenant, VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))}, &cl)
		post(t, ts, "/v1/eips", EIPRequest{Tenant: tenant, VM: string(w.Host(f.CloudB, f.RegionsB[0], "az1", 1+i%2))}, &tg)
		clients[i], targets[i] = cl.EIP, tg.EIP
	}
	region := f.CloudB + "/" + f.RegionsB[0]
	if code := post(t, ts, "/v1/fail", FaultRequest{Kind: "region", Target: region}, nil); code != http.StatusOK {
		t.Fatalf("fail region: status %d", code)
	}

	entry := func(tenant, round int) string { return fmt.Sprintf("10.%d.%d.0/24", tenant, round) }
	var wg sync.WaitGroup
	errs := make(chan error, tenants*rounds+rounds)
	for i := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				body, _ := json.Marshal(PermitRequest{Tenant: fmt.Sprintf("t%d", i), Target: targets[i], Entries: []string{entry(i, r)}})
				resp, err := http.Post(ts.URL+"/v1/permit", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("t%d permit round %d: status %d", i, r, resp.StatusCode)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := range rounds {
			urls := []string{
				fmt.Sprintf("/v1/explain?tenant=t%d&src=%s&dst=%s", r%tenants, clients[r%tenants], targets[r%tenants]),
				"/v1/metrics",
			}
			for _, url := range urls {
				resp, err := http.Get(ts.URL + url)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if code := post(t, ts, "/v1/heal", FaultRequest{Kind: "region", Target: region, AdvanceMillis: 1500}, nil); code != http.StatusOK {
		t.Fatalf("heal region: status %d", code)
	}
	pb, _ := w.Cloud.Provider(f.CloudB)
	for i, target := range targets {
		ip, _ := declnet.ParseIP(target)
		want, _ := declnet.ParsePrefix(entry(i, rounds-1))
		if got := pb.Permits.EntriesOf(ip); !slices.Equal(got, []declnet.Prefix{want}) {
			t.Errorf("t%d target %s installed %v, want its last request [%v]", i, target, got, want)
		}
	}
}

// TestFaultAdvanceIsBounded: a fault route's run holds the world gate
// while the daemon tickers fire up to its deadline, so an advance_ms over
// the bound is refused with a 400 — promptly, with nothing injected —
// while a probe sent beside it is served. An advance at the bound runs.
func TestFaultAdvanceIsBounded(t *testing.T) {
	ts, w := newTestServer(t)
	fig := w.Fig1
	var src, dst EIPResponse
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(fig.CloudA, fig.RegionsA[0], "az1", 1))}, &src)
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(fig.CloudB, fig.RegionsB[0], "az1", 1))}, &dst)
	if code := post(t, ts, "/v1/permit", PermitRequest{Tenant: "acme", Target: dst.EIP, Entries: []string{src.EIP}}, nil); code != http.StatusOK {
		t.Fatalf("permit: status %d", code)
	}
	node := string(w.Host(fig.CloudB, fig.RegionsB[0], "az2", 1))
	codes := make(chan string, 2)
	send := func(name, method, path string, body []byte) {
		req, _ := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			codes <- fmt.Sprintf("%s: %v", name, err)
			return
		}
		resp.Body.Close()
		codes <- fmt.Sprintf("%s: %d", name, resp.StatusCode)
	}
	go send("fail", http.MethodPost, "/v1/fail",
		[]byte(fmt.Sprintf(`{"kind":"node","target":%q,"advance_ms":1e12}`, node)))
	go send("probe", http.MethodGet, fmt.Sprintf("/v1/probe?tenant=acme&src=%s&dst=%s", src.EIP, dst.EIP), nil)
	var got []string
	deadline := time.After(10 * time.Second)
	for range 2 {
		select {
		case c := <-codes:
			got = append(got, c)
		case <-deadline:
			t.Fatalf("answered within 10s: %v; want the fail refused and the probe served", got)
		}
	}
	slices.Sort(got)
	if want := []string{"fail: 400", "probe: 200"}; !slices.Equal(got, want) {
		t.Fatalf("answers %v, want %v", got, want)
	}
	if !w.Faults().Inj.NodeUp(topo.NodeID(node)) {
		t.Fatal("a refused fail request injected its fault")
	}
	var resp FaultResponse
	if code := post(t, ts, "/v1/fail", FaultRequest{Kind: "node", Target: node, AdvanceMillis: 60e3}, &resp); code != http.StatusOK || resp.NodeFailures != 1 {
		t.Fatalf("fail at the bound: status %d, %+v", code, resp)
	}
}
