package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"declnet/internal/addr"
	"declnet/internal/intent"
)

// TestSIGTERMDrains runs the daemon as deployed, acknowledges fewer
// mutations than one fsync interval holds, and SIGTERMs it: the daemon
// must exit 0 on its own, and the store it leaves behind must replay
// every acknowledged grant from a cleanly closed journal.
func TestSIGTERMDrains(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "declnetd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	listen := l.Addr().String()
	l.Close()
	dataDir := t.TempDir()
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-listen", listen, "-data-dir", dataDir, "-fsync", "interval", "-log-level", "error")
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer cmd.Process.Kill()

	base := "http://" + listen
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if resp, err := http.Get(base + "/v1/status"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("declnetd not ready; stderr:\n%s", &stderr)
		}
	}

	const acks = fsyncEvery / 2 // none fsynced by count
	var granted []addr.IP
	for i := 0; i < acks; i++ {
		body := fmt.Sprintf(`{"tenant":"acme","vm":"cloudA/a-east/az1/host%d"}`, i%4+1)
		resp, err := http.Post(base+"/v1/eips", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		var reply struct {
			EIP string `json:"eip"`
		}
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("request_eip %d: status %d, decode %v", i, resp.StatusCode, err)
		}
		ip, err := addr.ParseIP(reply.EIP)
		if err != nil {
			t.Fatal(err)
		}
		granted = append(granted, ip)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("declnetd did not exit 0 on SIGTERM: %v; stderr:\n%s", err, &stderr)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("declnetd still running 15s after SIGTERM; stderr:\n%s", &stderr)
	}

	store, err := intent.Open(dataDir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Seq() < acks {
		t.Errorf("store replays %d records, %d were acknowledged", store.Seq(), acks)
	}
	if store.Stats().TailTruncated {
		t.Error("journal tail was truncated on replay")
	}
	st := store.State()
	for _, ip := range granted {
		if st.Endpoints[ip] == nil {
			t.Errorf("acknowledged grant %s is missing from the reopened store", ip)
		}
	}
}
