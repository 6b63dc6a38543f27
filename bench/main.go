// Command bench drives a deployed declnetd over loopback sockets and
// reports what a tenant would see: see README.md in this directory.
//
//	go run -C bench . -seed 1                 every workload, end-to-end metrics
//	go run -C bench . -seed 1 -trace 1        every workload, per-layer metrics
//	go run -C bench . -workload read_mostly -seed 7 -seconds 18 -trace 0
//	go run -C bench . -repeat 5               calibration: run-to-run spread against each bound
//	go run -C bench . -smoke                  seconds-long sanity run on a small world
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where the benchmark keeps everything it writes: the
// daemon binary and each run's data directory. Empty means .bench_build
// at the root of the checkout, which .gitignore names; tests point it
// elsewhere.
var buildDir string

// cleanups run once, on return from run or on a signal, newest first.
var cleanups struct {
	sync.Mutex
	fns []func()
}

func onExit(fn func()) {
	cleanups.Lock()
	cleanups.fns = append(cleanups.fns, fn)
	cleanups.Unlock()
}

func runCleanups() {
	cleanups.Lock()
	defer cleanups.Unlock()
	for i := len(cleanups.fns) - 1; i >= 0; i-- {
		cleanups.fns[i]()
	}
	cleanups.fns = nil
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "run one workload (default: all four)")
	seed := flag.Int64("seed", 1, "workload seed: same seed, same inputs")
	seconds := flag.Int("seconds", 18, "measured seconds per workload: open-loop and closed-loop slices alternating, half the time each")
	trace := flag.Int("trace", 0, "1: the traced run, reporting per-layer metrics instead of end-to-end ones")
	smoke := flag.Bool("smoke", false, "small world and one-second phases")
	repeat := flag.Int("repeat", 1, "run the whole set N times and print each metric's spread against its bound")
	out := flag.String("out", "", "also write the full report as JSON to this file")
	spans := flag.String("spans", "", "with -trace 1: write the recorded spans as CSV to this file")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		return 2
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-sigs
		runCleanups()
		os.Exit(130)
	}()
	defer runCleanups()

	opts := options{seed: *seed, smoke: *smoke, traced: *trace == 1, repeat: *repeat, spansPath: *spans,
		measured: time.Duration(*seconds) * time.Second}
	if *workload != "" {
		wl, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		opts.workloads = []Workload{wl}
	} else {
		opts.workloads = workloads
	}
	report, err := benchmark(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *out != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !report.Correct {
		return 1
	}
	return 0
}

// workDir resolves buildDir, creates this process's scratch directory
// under it and arranges its removal.
func workDir() (string, error) {
	if buildDir == "" {
		// Module declnet is the checkout: the main module when run from
		// its root, the replaced requirement when run from bench/.
		out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}", "declnet").Output()
		if err != nil {
			return "", fmt.Errorf("bench: cannot find module declnet from here: %w", err)
		}
		buildDir = filepath.Join(strings.TrimSpace(string(out)), ".bench_build")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return "", err
	}
	onExit(func() { os.RemoveAll(dir) })
	return dir, nil
}
