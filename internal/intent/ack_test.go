package intent_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"declnet/internal/api"
	"declnet/internal/core"
	"declnet/internal/intent"
	"declnet/internal/topo"
)

// ackServer serves declnetd's cloud (the Figure-1 providers, no data
// plane) over a store in dir under opts.
func ackServer(t *testing.T, dir string, opts intent.Options) (*httptest.Server, *intent.Log, *topo.Fig1World) {
	t.Helper()
	w := topo.BuildFig1(2)
	c := core.NewCloud(w.Graph, core.NoDataPlane(1))
	if _, _, _, err := core.AddFig1Providers(c, w); err != nil {
		t.Fatal(err)
	}
	l, err := intent.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableIntent(l)
	ts := httptest.NewServer(api.NewServer(c))
	t.Cleanup(ts.Close)
	return ts, l, w
}

func call(t *testing.T, ts *httptest.Server, method, path string, body any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// checkHonestAcks drives a store whose journal fails every call named
// failing: the mutation that meets the failure answers 503 naming it, so
// does every mutation after it (single verbs and a batch, even one that
// would be refused), and the log makes no journal call after the failed
// one — no write, no fsync, not even at Close. Reads keep serving, and
// /v1/health answers 503 naming the cause. It returns the store's
// directory once the log is closed.
func checkHonestAcks(t *testing.T, opts intent.Options, failing string) string {
	dir := t.TempDir()
	ts, l, w := ackServer(t, dir, opts)
	vm := string(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	if code, body := call(t, ts, "POST", "/v1/eips", map[string]string{"tenant": "acme", "vm": vm}); code != http.StatusOK {
		t.Fatalf("grant before the failure: %d %s", code, body)
	}
	calls := intent.FailJournal(l, failing, errors.New("injected disk error"))
	code, body := call(t, ts, "POST", "/v1/eips", map[string]string{"tenant": "acme", "vm": vm})
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "injected disk error") {
		t.Fatalf("grant whose journal %s fails: %d %s, want 503 naming the cause", failing, code, body)
	}
	failedWrites, failedSyncs := calls()
	for _, m := range []struct {
		path string
		body any
	}{
		{"/v1/qos", map[string]any{"tenant": "acme", "provider": "cloudA", "region": w.RegionsA[0], "bandwidth_bps": 1e9}},
		{"/v1/eips", map[string]string{"tenant": "acme", "vm": "no-such-vm"}},
		{"/v1/batch", map[string]any{"tenant": "acme", "ops": []map[string]string{{"op": "request_eip", "vm": vm}}}},
	} {
		if code, body := call(t, ts, "POST", m.path, m.body); code != http.StatusServiceUnavailable || !strings.Contains(body, "journal") {
			t.Errorf("%s after the failure: %d %s, want 503", m.path, code, body)
		}
	}
	if code, body := call(t, ts, "GET", "/v1/status", nil); code != http.StatusOK {
		t.Errorf("a read after the failure: %d %s", code, body)
	}
	code, body = call(t, ts, "GET", "/v1/health", nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "journal "+failing+": injected disk error") {
		t.Errorf("/v1/health after the failure: %d %s, want 503 naming the failed %s", code, body, failing)
	}
	l.Close()
	if writes, syncs := calls(); writes != failedWrites || syncs != failedSyncs {
		t.Errorf("after its failed %s the log made %d more writes and %d more fsyncs, want none",
			failing, writes-failedWrites, syncs-failedSyncs)
	}
	if st := l.Stats(); st.AppendErrors != 1 {
		t.Errorf("%d append errors, want the one failed %s", st.AppendErrors, failing)
	}
	return dir
}

// TestFailedJournalWriteAnswers503: a journal write fails. The frame is
// not in the journal, so a restart recovers the one grant acknowledged
// before it.
func TestFailedJournalWriteAnswers503(t *testing.T) {
	dir := checkHonestAcks(t, intent.Options{}, "write")
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n := l.Endpoints().Len(); n != 1 {
		t.Errorf("restart recovers %d endpoints, want the 1 acknowledged", n)
	}
}

// TestFailedJournalFsyncAnswers503: under -fsync always the fsync of a
// frame fails, and the log never fsyncs the file again: after a failed
// fsync the kernel may have dropped the pages and report the next one a
// success.
func TestFailedJournalFsyncAnswers503(t *testing.T) {
	checkHonestAcks(t, intent.Options{Sync: intent.SyncAlways}, "fsync")
}
