package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const readyDeadline = 30 * time.Second

// buildDaemon compiles cmd/declnetd into buildDir; go build leaves an
// up-to-date binary alone, so only a checkout's first run pays. The
// package is named by import path, so it builds from the root of the
// checkout and from bench/ alike.
func buildDaemon() (string, error) {
	bin := filepath.Join(buildDir, "declnetd")
	cmd := exec.Command("go", "build", "-o", bin, "declnet/cmd/declnetd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: go build declnet/cmd/declnetd: %v\n%s", err, out)
	}
	return bin, nil
}

// tailBuffer keeps the last few KiB written to it: the daemon's stderr,
// shown when it dies early.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = t.buf[len(t.buf)-tailBytes:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// Daemon is one declnetd child process.
type Daemon struct {
	Argv   []string
	Base   string // http://127.0.0.1:port
	Start  time.Time
	cmd    *exec.Cmd
	stderr tailBuffer
	exited chan struct{} // closed once Wait has returned
}

// freePort asks the kernel for an unused loopback port by binding :0.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs declnetd as deployed: a data directory, the world's
// seed and host count, quiet logs, and every other flag at its default
// except the fsync policy the workload names.
func startDaemon(bin, dataDir, fsync string, hosts int) (*Daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-listen", addr, "-data-dir", dataDir, "-seed", "1", "-hosts", strconv.Itoa(hosts), "-log-level", "error"}
	if fsync != "interval" {
		args = append(args, "-fsync", fsync)
	}
	d := &Daemon{Argv: append([]string{"declnetd"}, args...), Base: "http://" + addr, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = &d.stderr
	d.Start = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	onExit(d.Kill) // a signal must not leave it running
	return d, nil
}

func (d *Daemon) Pid() int { return d.cmd.Process.Pid }

// WaitReady polls GET /v1/status until it answers 200 and returns the
// time since exec. It gives up when the daemon exits or after
// readyDeadline, with the daemon's last stderr either way.
func (d *Daemon) WaitReady(client *http.Client) (time.Duration, error) {
	deadline := d.Start.Add(readyDeadline)
	for {
		resp, err := client.Get(d.Base + "/v1/status")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(d.Start), nil
			}
		}
		select {
		case <-d.exited:
			return 0, fmt.Errorf("bench: declnetd exited before it was ready (%v); stderr tail:\n%s", d.cmd.ProcessState, d.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("bench: declnetd not ready after %v; stderr tail:\n%s", readyDeadline, d.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Kill sends SIGKILL and waits until the process has been reaped. Safe
// to call more than once.
func (d *Daemon) Kill() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.exited
}

// Exited reports whether the daemon has died.
func (d *Daemon) Exited() bool {
	select {
	case <-d.exited:
		return true
	default:
		return false
	}
}

// procSample is one reading of /proc/<pid>/{stat,status,io}.
type procSample struct {
	UserSec, SysSec float64
	HWMKiB          float64
	WriteSyscalls   float64
	WriteBytes      float64
	IOReadable      bool
}

func (p procSample) CPUSec() float64 { return p.UserSec + p.SysSec }

// minus is the processor time spent between two readings.
func (p procSample) minus(q procSample) procSample {
	return procSample{UserSec: p.UserSec - q.UserSec, SysSec: p.SysSec - q.SysSec}
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc on every
// architecture Go supports.
const clockTick = 100.0

func readProc(pid int) (procSample, error) {
	var s procSample
	dir := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	i := bytes.LastIndexByte(stat, ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 13 {
		return s, fmt.Errorf("bench: cannot parse %s/stat", dir)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("bench: cannot parse %s/stat times", dir)
	}
	s.UserSec, s.SysSec = ut/clockTick, st/clockTick
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return s, err
	}
	s.HWMKiB = procField(string(status), "VmHWM:")
	// /proc/<pid>/io needs ptrace access; a sandbox may refuse it.
	if io, err := os.ReadFile(dir + "/io"); err == nil {
		s.IOReadable = true
		s.WriteSyscalls = procField(string(io), "syscw:")
		s.WriteBytes = procField(string(io), "write_bytes:")
	}
	return s, nil
}

// procField returns the number following key in a "key: value" file.
func procField(text, key string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// selfCPUSec is this process's user+system time.
func selfCPUSec() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
