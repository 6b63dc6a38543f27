package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// options is a parsed command line.
type options struct {
	workloads []Workload
	seed      int64
	smoke     bool
	traced    bool
	repeat    int
	spansPath string
	measured  time.Duration // open-loop and closed-loop slices together
}

// Env stamps where the numbers came from.
type Env struct {
	NumCPU           int    `json:"nproc"`
	ClientGOMAXPROCS int    `json:"client_gomaxprocs"`
	DaemonGOMAXPROCS int    `json:"daemon_gomaxprocs"`
	GoVersion        string `json:"go_version"`
	Kernel           string `json:"kernel"`
	DataDirFS        string `json:"data_dir_fs"`
	GitCommit        string `json:"git_commit"`
	Seed             int64  `json:"seed"`
	Spec             Spec   `json:"world"`
}

// fsNames maps statfs magic numbers to the names df prints.
var fsNames = map[int64]string{
	0x01021994: "tmpfs", 0xEF53: "ext4", 0x794C7630: "overlayfs", 0x58465342: "xfs",
	0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
}

func stampEnv(dir string, seed int64, spec Spec) Env {
	env := Env{
		NumCPU: runtime.NumCPU(), ClientGOMAXPROCS: runtime.GOMAXPROCS(0),
		// The daemon inherits this process's environment, GOMAXPROCS
		// included, and sets nothing itself.
		DaemonGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:        runtime.Version(), Kernel: "unknown", DataDirFS: "unknown", GitCommit: "unknown",
		Seed: seed, Spec: spec,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil {
		env.DataDirFS = fmt.Sprintf("0x%x", int64(st.Type))
		if name, ok := fsNames[int64(st.Type)]; ok {
			env.DataDirFS = name
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	return env
}

// Report is everything one invocation measured.
type Report struct {
	Correct bool         `json:"correct"`
	Env     Env          `json:"env"`
	Traced  bool         `json:"traced"`
	Runs    []*runResult `json:"runs"` // repeat-major, then workload order
}

// driverLine is the last line of standard output: the contract the
// benchmark driver parses.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchmark runs the chosen workloads and prints every metric by name.
func benchmark(opts options) (*Report, error) {
	dir, err := workDir()
	if err != nil {
		return nil, err
	}
	bin, err := buildDaemon()
	if err != nil {
		return nil, err
	}
	// About a second and a half per slice: long enough to hold a
	// reconciler sweep, short enough for many slices.
	slices := int(opts.measured / (3 * time.Second))
	if slices < 1 {
		slices = 1
	}
	cfg := runConfig{spec: fullSpec, seed: opts.seed, slice: opts.measured / time.Duration(2*slices), slices: slices,
		bin: bin, workDir: dir, replay: replayOps, setups: setupRounds, recovers: recoverRounds}
	if opts.smoke {
		cfg.spec, cfg.slice, cfg.slices, cfg.replay, cfg.setups, cfg.recovers = smokeSpec, time.Second, 1, smokeReplayOps, 1, 1
	}
	report := &Report{Correct: true, Env: stampEnv(dir, opts.seed, cfg.spec), Traced: opts.traced}
	printEnv(report.Env)
	log := &spanLog{origin: time.Now()}
	line := driverLine{Correct: true, Metrics: map[string]driverValue{}}
	for rep := 0; rep < opts.repeat; rep++ {
		// Each repeat draws another trace, as the driver's runs do.
		cfg.seed = opts.seed + int64(rep)
		for _, wl := range opts.workloads {
			var res *runResult
			if opts.traced {
				res, err = tracedRun(cfg, wl, log)
			} else {
				res, err = runWorkload(cfg, wl)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", wl.Name, err)
			}
			report.Runs = append(report.Runs, res)
			defs, values := endToEnd, res.Metrics
			if opts.traced {
				defs, values = perLayer, res.Layers
			}
			printRun(res, opts.traced)
			line.Attempted += res.Attempted
			line.Failed += res.Failed
			for _, d := range defs {
				v, ok := values[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("%s: metric %s was not measured", wl.Name, d.Name)
				}
				name := d.Name
				if len(opts.workloads) > 1 {
					name = wl.Name + "/" + d.Name
				}
				line.Metrics[name] = driverValue{Value: v, Unit: d.Unit}
			}
		}
	}
	if opts.repeat > 1 && !opts.traced {
		printCalibration(report.Runs, opts.workloads)
	}
	if opts.spansPath != "" {
		if err := log.writeCSV(opts.spansPath); err != nil {
			return nil, err
		}
	}
	line.Correct = line.Failed == 0
	report.Correct = line.Correct
	buf, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(buf))
	return report, nil
}

func printEnv(e Env) {
	fmt.Printf("env: nproc=%d gomaxprocs(client=%d daemon=%d) %s kernel=%s data-dir-fs=%s commit=%s seed=%d world=%d tenants x %d endpoints\n",
		e.NumCPU, e.ClientGOMAXPROCS, e.DaemonGOMAXPROCS, e.GoVersion, e.Kernel, e.DataDirFS, e.GitCommit, e.Seed,
		e.Spec.Tenants, e.Spec.Endpoints)
	if e.DataDirFS == "tmpfs" {
		fmt.Println("WARNING: THE DATA DIRECTORY IS ON TMPFS. fsync is free there, so write_mostly_sync measures nothing.")
	}
}

func printRun(r *runResult, traced bool) {
	fmt.Printf("\n== %s  (%d open-loop slices at %.0f req/s alternating with %d closed-loop slices, %.3gs each, 2 connections)\n",
		r.Workload, r.Slices, r.RateHz, r.Slices, r.SliceS)
	fmt.Printf("   daemon: %s\n", strings.Join(r.Argv, " "))
	if !traced {
		for _, d := range endToEnd {
			printMetric(d, r.Metrics[d.Name])
		}
		fmt.Println("   -- too unsteady on a shared machine to carry a bound:")
	}
	for _, d := range perLayer {
		if traced || reported[d.Name] {
			printMetric(d, r.Layers[d.Name])
		}
	}
	fmt.Printf("   samples: open-loop reads %d (p%g supported), writes %d (p%g); closed-loop batches %d; requests %d, failed %d\n",
		r.Samples["read"], 100*highestSupported(r.Samples["read"]), r.Samples["write"], 100*highestSupported(r.Samples["write"]),
		r.Samples["batch"], r.Attempted, r.Failed)
	for _, f := range r.Flags {
		fmt.Printf("   FLAG: %s\n", f)
	}
	if r.FirstErr != "" {
		fmt.Printf("   FIRST ERROR: %s\n", r.FirstErr)
	}
}

func printMetric(d metricDef, v float64) {
	dir := "lower is better"
	if d.Higher {
		dir = "higher is better"
	}
	bound := ""
	if d.Bound > 0 {
		bound = fmt.Sprintf(", bound %.0f%%", 100*d.Bound)
	}
	fmt.Printf("   %-34s %14.4f %-6s (%s%s)\n", d.Name, v, d.Unit, dir, bound)
}

// printCalibration reports, per workload and end-to-end metric, the
// median and quartiles over the repeats and the quartile distance as a
// share of the median, set against the metric's bound.
func printCalibration(runs []*runResult, wls []Workload) {
	fmt.Printf("\n== calibration over %d runs per workload: spread = (q3-q1)/median\n", len(runs)/len(wls))
	fmt.Printf("   %-18s %-26s %12s %12s %12s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "/bound")
	row := func(wl Workload, d metricDef, value func(*runResult) float64) {
		var vals []float64
		for _, r := range runs {
			if r.Workload == wl.Name {
				vals = append(vals, value(r))
			}
		}
		q1, med, q3 := quartiles(vals)
		spread := (q3 - q1) / med
		against := "       -"
		if d.Bound > 0 {
			against = fmt.Sprintf("%8.2f", spread/d.Bound)
			if spread > d.Bound {
				against += "  EXCEEDS BOUND"
			}
		}
		fmt.Printf("   %-18s %-26s %12.4f %12.4f %12.4f %7.1f%% %s\n", wl.Name, d.Name, q1, med, q3, 100*spread, against)
	}
	for _, wl := range wls {
		for _, d := range endToEnd {
			row(wl, d, func(r *runResult) float64 { return r.Metrics[d.Name] })
		}
		for _, d := range perLayer {
			if reported[d.Name] {
				row(wl, d, func(r *runResult) float64 { return r.Layers[d.Name] })
			}
		}
	}
}
