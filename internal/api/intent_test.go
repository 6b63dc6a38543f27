package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"declnet"
	"declnet/internal/core"
	"declnet/internal/intent"
)

// newPersistentServer builds a world with a durable store and a
// reconciler (not started), mirroring declnetd's -data-dir boot path.
func newPersistentServer(t *testing.T, cfg core.ReconcilerConfig) (*httptest.Server, *declnet.World, *intent.Log) {
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
	srv := NewServer(w)
	if _, err := w.EnableReconciler(cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, w, l
}

func TestReconcileEndpointsDisabled(t *testing.T) {
	ts, _ := newTestServer(t) // no -data-dir: store and reconciler absent
	var status ReconcileResponse
	if code := get(t, ts, "/v1/reconcile", &status); code != 200 {
		t.Fatalf("GET /v1/reconcile status %d", code)
	}
	if status.Enabled {
		t.Error("reconciler reports enabled without a store")
	}
	if code := post(t, ts, "/v1/reconcile/sweep", struct{}{}, nil); code != http.StatusConflict {
		t.Errorf("sweep without reconciler status %d, want 409", code)
	}
	if code := post(t, ts, "/v1/snapshot", struct{}{}, nil); code != http.StatusConflict {
		t.Errorf("snapshot without store status %d, want 409", code)
	}
}

func TestReconcileEndpoints(t *testing.T) {
	ts, w, _ := newPersistentServer(t, core.ReconcilerConfig{})
	f := w.Fig1

	var eip EIPResponse
	if code := post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme",
		VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))}, &eip); code != 200 {
		t.Fatalf("request_eip status %d", code)
	}
	var dst EIPResponse
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 2))}, &dst)
	if code := post(t, ts, "/v1/permit", PermitRequest{Tenant: "acme",
		Target: dst.EIP, Entries: []string{eip.EIP}}, nil); code != 200 {
		t.Fatalf("permit status %d", code)
	}

	var status ReconcileResponse
	if code := get(t, ts, "/v1/reconcile", &status); code != 200 {
		t.Fatalf("GET /v1/reconcile status %d", code)
	}
	if !status.Enabled {
		t.Fatal("reconciler not enabled on a persistent server")
	}

	// Drift the dataplane, then converge it through the API.
	target, err := ParsePermitEntry(dst.EIP)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Cloud.DriftWipePermit(target.Addr) {
		t.Fatal("DriftWipePermit failed")
	}
	var sweep core.SweepResult
	if code := post(t, ts, "/v1/reconcile/sweep", struct{}{}, &sweep); code != 200 {
		t.Fatalf("POST /v1/reconcile/sweep status %d", code)
	}
	if sweep.DriftPermits != 1 || sweep.Repaired != 1 {
		t.Fatalf("sweep = %+v, want 1 permit drift repaired", sweep)
	}
	get(t, ts, "/v1/reconcile", &status)
	if status.Sweeps == 0 || status.Repairs != 1 {
		t.Errorf("status after sweep = %+v", status.ReconcileStatus)
	}
}

// TestReconcileMetricsMatchStatus: every declnet_reconcile_* series on
// /v1/metrics, the wall-clock lag aside, reads what /v1/reconcile reports
// for the same counter, after sweeps that found drift on all three
// surfaces, by a fault-monitor mark and by the rotation.
func TestReconcileMetricsMatchStatus(t *testing.T) {
	ts, w, _ := newPersistentServer(t, core.ReconcilerConfig{AntiEntropyK: 2})
	f := w.Fig1
	var src, be EIPResponse
	var sip SIPResponse
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))}, &src)
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudB, f.RegionsB[0], "az1", 1))}, &be)
	post(t, ts, "/v1/sips", SIPRequest{Tenant: "acme", Provider: f.CloudB}, &sip)
	post(t, ts, "/v1/bind", BindRequest{Tenant: "acme", EIP: be.EIP, SIP: sip.SIP}, nil)
	post(t, ts, "/v1/qos", QoSRequest{Tenant: "acme", Provider: f.CloudB, Region: f.RegionsB[0], Bandwidth: 1e9}, nil)
	sweep := func() {
		if code := post(t, ts, "/v1/reconcile/sweep", struct{}{}, nil); code != 200 {
			t.Fatalf("POST /v1/reconcile/sweep status %d", code)
		}
	}
	sweep()
	sweep() // both phases: the world converged
	srcIP, err := ParsePermitEntry(src.EIP)
	if err != nil {
		t.Fatal(err)
	}
	beIP, err := ParsePermitEntry(be.EIP)
	if err != nil {
		t.Fatal(err)
	}
	sipIP, err := ParsePermitEntry(sip.SIP)
	if err != nil {
		t.Fatal(err)
	}
	// A permit deferred at src's failed host lands once the host heals,
	// and the fault monitor marks src's list; the wipe after it is drift
	// the mark finds. The unbind and the zeroed quota mark nothing.
	srcHost := string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))
	if err := w.Fail("node", srcHost); err != nil {
		t.Fatal(err)
	}
	if code := post(t, ts, "/v1/permit", PermitRequest{Tenant: "acme", Target: src.EIP, Entries: []string{be.EIP}}, nil); code != 200 {
		t.Fatalf("permit status %d", code)
	}
	if _, pending := w.Sim.PendingPermit(srcIP.Addr); !pending {
		t.Fatal("the permit at a failed host did not defer")
	}
	if err := w.Heal("node", srcHost); err != nil {
		t.Fatal(err)
	}
	w.RunFor(1500 * time.Millisecond)
	if _, pending := w.Sim.PendingPermit(srcIP.Addr); pending {
		t.Fatal("the deferred permit did not land")
	}
	if !w.Cloud.DriftWipePermit(srcIP.Addr) || !w.Cloud.DriftUnbind(sipIP.Addr, beIP.Addr) ||
		!w.Sim.DriftZeroQuota(f.CloudB, "acme", f.RegionsB[0]) {
		t.Fatal("drift injection failed")
	}
	sweep()
	sweep()

	var st ReconcileResponse
	if code := get(t, ts, "/v1/reconcile", &st); code != 200 {
		t.Fatalf("GET /v1/reconcile status %d", code)
	}
	if st.DriftPermits == 0 || st.DriftBinds == 0 || st.DriftQuotas == 0 || st.DirtyHits == 0 || st.AntiEntropyScanned == 0 {
		t.Fatalf("sweeps did not find drift on every surface by both routes: %+v", st.ReconcileStatus)
	}
	want := map[string]float64{
		"declnet_reconcile_sweeps_total":                  float64(st.Sweeps),
		"declnet_reconcile_repairs_total":                 float64(st.Repairs),
		`declnet_reconcile_drift_total{surface="permit"}`: float64(st.DriftPermits),
		`declnet_reconcile_drift_total{surface="bind"}`:   float64(st.DriftBinds),
		`declnet_reconcile_drift_total{surface="qos"}`:    float64(st.DriftQuotas),
		"declnet_reconcile_scanned_total":                 float64(st.Scanned),
		"declnet_reconcile_dirty_hits_total":              float64(st.DirtyHits),
		"declnet_reconcile_anti_entropy_scanned_total":    float64(st.AntiEntropyScanned),
		"declnet_reconcile_queue_depth":                   float64(st.QueueDepth),
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(series, "declnet_reconcile_") || series == "declnet_reconcile_lag_seconds" {
			continue
		}
		expect, known := want[series]
		if !known {
			t.Errorf("%s has no /v1/reconcile field to match", series)
			continue
		}
		delete(want, series)
		if got, err := strconv.ParseFloat(value, 64); err != nil || got != expect {
			t.Errorf("%s = %s on /v1/metrics, %g on /v1/reconcile", series, value, expect)
		}
	}
	for series := range want {
		t.Errorf("/v1/metrics has no %s", series)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	ts, w, l := newPersistentServer(t, core.ReconcilerConfig{})
	f := w.Fig1
	for i, az := range []string{"az1", "az1", "az2"} {
		if code := post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme",
			VM: string(w.Host(f.CloudA, f.RegionsA[0], az, i%2+1))}, nil); code != 200 {
			t.Fatalf("request_eip %d failed", i)
		}
	}
	seqBefore := l.Seq()
	var snap SnapshotResponse
	if code := post(t, ts, "/v1/snapshot", struct{}{}, &snap); code != 200 {
		t.Fatalf("POST /v1/snapshot status %d", code)
	}
	if snap.Compactions != 1 {
		t.Errorf("Compactions = %d, want 1", snap.Compactions)
	}
	if snap.Seq != seqBefore {
		t.Errorf("snapshot Seq = %d, want %d", snap.Seq, seqBefore)
	}
	// The store still journals after compaction.
	if code := post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme",
		VM: string(w.Host(f.CloudA, f.RegionsA[1], "az1", 1))}, nil); code != 200 {
		t.Fatal("request_eip after snapshot failed")
	}
	if l.Seq() != seqBefore+1 {
		t.Errorf("Seq after post-snapshot mutation = %d, want %d", l.Seq(), seqBefore+1)
	}
}

// TestAPIKillRestartEquivalence drives mutations through the HTTP
// layer, "crashes" (drops the server and world), recovers a fresh world
// from the store, and compares digests.
func TestAPIKillRestartEquivalence(t *testing.T) {
	dir := t.TempDir()
	w, err := declnet.NewFig1World(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.EnableIntent(l)
	ts := httptest.NewServer(NewServer(w))
	f := w.Fig1

	var src, be EIPResponse
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))}, &src)
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudB, f.RegionsB[0], "az1", 1))}, &be)
	var sip SIPResponse
	post(t, ts, "/v1/sips", SIPRequest{Tenant: "acme", Provider: f.CloudB}, &sip)
	post(t, ts, "/v1/bind", BindRequest{Tenant: "acme", EIP: be.EIP, SIP: sip.SIP}, nil)
	post(t, ts, "/v1/permit", PermitRequest{Tenant: "acme", Target: sip.SIP, Entries: []string{src.EIP}}, nil)
	post(t, ts, "/v1/qos", QoSRequest{Tenant: "acme", Provider: f.CloudB, Region: f.RegionsB[0], Bandwidth: 1e9}, nil)
	want := w.StateDigest()
	ts.Close() // crash: the Log is abandoned un-Closed

	l2, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	w2, err := declnet.NewFig1World(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.RestoreIntent(l2.State()); err != nil {
		t.Fatal(err)
	}
	if got := w2.StateDigest(); got != want {
		t.Fatalf("digest mismatch after API-driven restart\n got %s\nwant %s", got, want)
	}
}

// TestUnbindBesideSweepsNever409: a client binds and unbinds over HTTP,
// and a noisy tenant loops multi-shard batches, while forced sweeps run
// back to back. Every unbind follows a bind the client saw acknowledged,
// so none may answer 409, and no sweep may report a repair: nothing
// injected drift.
func TestUnbindBesideSweepsNever409(t *testing.T) {
	ts, w, _ := newPersistentServer(t, core.ReconcilerConfig{})
	f := w.Fig1
	var eip EIPResponse
	var sip SIPResponse
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))}, &eip)
	if code := post(t, ts, "/v1/sips", SIPRequest{Tenant: "acme", Provider: f.CloudA}, &sip); code != 200 {
		t.Fatalf("request_sip status %d", code)
	}
	storm := BatchRequest{Tenant: "noisy", Ops: []BatchOpRequest{
		{Op: "request_eip", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 2))},
		{Op: "request_sip", Provider: f.CloudA},
		{Op: "bind", EIP: "$0", SIP: "$1"},
		{Op: "set_permit", Target: "$1", Entries: []string{"10.0.0.0/8"}},
		{Op: "release_sip", SIP: "$1"},
		{Op: "release_eip", EIP: "$0"},
	}}

	// try is post without t.Fatal: the goroutines below use it, and the
	// main loop must stop them before the test ends.
	try := func(path string, body, out any) error {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			return fmt.Errorf("%s answered %d", path, resp.StatusCode)
		}
		if out != nil {
			return json.NewDecoder(resp.Body).Decode(out)
		}
		return nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	repaired := 0
	loop := func(step func() error) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := step(); err != nil {
				t.Error(err)
				return
			}
		}
	}
	wg.Add(2)
	go loop(func() error {
		var sweep core.SweepResult
		err := try("/v1/reconcile/sweep", struct{}{}, &sweep)
		repaired += sweep.Repaired + sweep.DriftPermits + sweep.DriftBinds
		return err
	})
	go loop(func() error { return try("/v1/batch", storm, nil) })
	for i := 0; i < 200; i++ {
		req := BindRequest{Tenant: "acme", EIP: eip.EIP, SIP: sip.SIP, Weight: 1 + i%3}
		if err := try("/v1/bind", req, nil); err != nil {
			t.Errorf("bind %d: %v", i, err)
			break
		}
		if err := try("/v1/unbind", req, nil); err != nil {
			t.Errorf("unbind %d: %v: the acknowledged bind was reverted", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if repaired != 0 {
		t.Errorf("sweeps repaired or counted %d divergences with no drift injected", repaired)
	}
}

// TestRefusedOpChangesNothing: an op the declared state refuses — a
// release of an address the tenant does not hold, a create_group naming
// another tenant's address — answers 409 and leaves the installed world,
// the journal and its sequence number as they were: the check reads the
// declared state before anything is folded or installed.
func TestRefusedOpChangesNothing(t *testing.T) {
	ts, w, l := newPersistentServer(t, core.ReconcilerConfig{})
	f := w.Fig1
	var mine, theirs EIPResponse
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "acme", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))}, &mine)
	post(t, ts, "/v1/eips", EIPRequest{Tenant: "globex", VM: string(w.Host(f.CloudA, f.RegionsA[0], "az1", 2))}, &theirs)
	refused := map[string]any{ // path -> body
		"/v1/eips/release": ReleaseRequest{Tenant: "acme", EIP: theirs.EIP},
		"/v1/batch": BatchRequest{Tenant: "acme", Ops: []BatchOpRequest{
			{Op: "create_group", Name: "fleet", Members: []string{mine.EIP, theirs.EIP}}}},
	}
	for path, body := range refused {
		digest, seq, records := w.Cloud.StateDigest(), l.Seq(), l.Stats().JournalRecords
		if code := post(t, ts, path, body, nil); code != http.StatusConflict {
			t.Errorf("%s: status %d, want 409", path, code)
		}
		if w.Cloud.StateDigest() != digest || l.Seq() != seq || l.Stats().JournalRecords != records {
			t.Errorf("%s changed the world: seq %d -> %d, journal records %d -> %d", path, seq, l.Seq(), records, l.Stats().JournalRecords)
		}
	}
}

// TestStoreSizeMetrics: /v1/metrics exports the store's size —
// declnet_journal_bytes, declnet_journal_records and
// declnet_snapshot_bytes — and each agrees with the files on disk after
// a batch, after a compaction and after a reopen.
func TestStoreSizeMetrics(t *testing.T) {
	dir := t.TempDir()
	open := func() *httptest.Server {
		t.Helper()
		w, err := declnet.NewFig1World(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		l, err := intent.Open(dir, intent.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		if err := w.RestoreIntent(l.State()); err != nil {
			t.Fatal(err)
		}
		w.EnableIntent(l)
		ts := httptest.NewServer(NewServer(w))
		t.Cleanup(ts.Close)
		return ts
	}
	check := func(ts *httptest.Server, when string) {
		t.Helper()
		size := func(name string) float64 {
			fi, err := os.Stat(filepath.Join(dir, name))
			if errors.Is(err, os.ErrNotExist) {
				return 0
			} else if err != nil {
				t.Fatal(err)
			}
			return float64(fi.Size())
		}
		f, err := os.Open(filepath.Join(dir, "journal.log"))
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := intent.DecodeJournal(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []struct {
			name string
			want float64
		}{
			{"declnet_journal_bytes", size("journal.log")},
			{"declnet_journal_records", float64(len(recs))},
			{"declnet_snapshot_bytes", size("snapshot.json")},
		} {
			if got := scrapeGauge(t, ts, m.name); got != m.want {
				t.Errorf("%s: %s = %g, the store holds %g", when, m.name, got, m.want)
			}
		}
	}
	batch := func(ts *httptest.Server, az string) {
		t.Helper()
		if code := post(t, ts, "/v1/batch", BatchRequest{Tenant: "acme", Ops: onboardingOps(
			"cloudA/a-east/"+az+"/host1", 8)}, nil); code != 200 {
			t.Fatalf("batch status %d", code)
		}
	}
	ts := open()
	batch(ts, "az1")
	check(ts, "after a batch")
	if code := post(t, ts, "/v1/snapshot", nil, nil); code != 200 {
		t.Fatalf("/v1/snapshot status %d", code)
	}
	check(ts, "after a compaction")
	batch(ts, "az2")
	ts = open()
	check(ts, "after a reopen")
}
