package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"declnet/internal/api"
	"declnet/internal/core"
)

// Workload is one traffic mix. Rates are fixed here, between a fifth and
// a third of what the closed loop reaches on the 2-core box the benchmark
// was sized on, and never adapted at run time.
type Workload struct {
	Name      string
	ReadShare float64
	Fsync     string  // declnetd -fsync
	Rate      float64 // open-loop requests/s, all open-loop workers together
	Storm     bool    // worker 1 is one noisy tenant looping POST /v1/batch
}

var workloads = []Workload{
	{Name: "read_mostly", ReadShare: 0.95, Fsync: "interval", Rate: 2000},
	{Name: "write_mostly", ReadShare: 0.10, Fsync: "interval", Rate: 1200},
	{Name: "write_mostly_sync", ReadShare: 0.10, Fsync: "always", Rate: 500},
	{Name: "batch_storm", ReadShare: 0.50, Fsync: "interval", Rate: 200, Storm: true},
}

func findWorkload(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

const (
	nWorkers      = 2    // connections and worker goroutines, exactly
	setupRounds   = 5    // -smoke sets up once
	recoverRounds = 5    // -smoke recovers once
	warmupOps     = 1024 // per worker, discarded; by count so every run enters the open loop at the same journal position
	tailOps       = 1024 // per worker, between the last snapshot and the kill
	checkProbes   = 256  // seeded probes whose status must survive the kill
)

// countPhase is a closed loop of n requests per worker; the noisy
// tenant's are batches, so it sends proportionally fewer.
func countPhase(wl Workload, n int) phase {
	p := phase{n: []int{n, n}}
	if wl.Storm {
		p.n[1] = n / stormSlots
	}
	return p
}

// runConfig is what a run needs besides the workload.
type runConfig struct {
	spec    Spec
	seed    int64
	slice   time.Duration // length of one open-loop or closed-loop slice
	slices  int           // open and closed slices alternate, this many of each
	bin     string        // declnetd binary
	workDir string        // holds the data directory
	keepDir bool          // leave the data directory for the traced run to open
	replay  int           // traced run: timed ops per depth
	// setup_s and recover_s are medians over this many set-ups, each on a
	// fresh daemon, and this many kills of the last one.
	setups, recovers int
}

// runResult is one workload's untraced measurements.
type runResult struct {
	Workload  string             `json:"workload"`
	Metrics   map[string]float64 `json:"metrics"`   // end-to-end
	Layers    map[string]float64 `json:"layers"`    // what the daemon run contributes to the per-layer table
	Samples   map[string]int     `json:"samples"`   // sample counts behind the percentiles
	Flags     []string           `json:"flags"`     // saturated, thin tails, unreadable /proc files
	Attempted int                `json:"attempted"` // requests, all phases
	Failed    int                `json:"failed"`
	FirstErr  string             `json:"first_error,omitempty"`
	Argv      []string           `json:"daemon_argv"`
	SliceS    float64            `json:"slice_seconds"`
	Slices    int                `json:"slices_of_each"` // open-loop and closed-loop slices alternate
	RateHz    float64            `json:"open_rate_hz"`
	DataDir   string             `json:"-"`
	// closedMeans is the closed loop's mean latency and request count per
	// class, which the traced run's coverage check compares against.
	closedMeans [nClasses]time.Duration
	closedCount [nClasses]int
}

// newWorkers builds the two workers for a workload: worker w owns the
// tenants t ≡ w (mod 2). In a storm, worker 1 plays tenant 1 alone.
func newWorkers(wl Workload, lay *layout, model *Model, seed int64, execs []Executor) []*worker {
	workers := make([]*worker, nWorkers)
	for w := range workers {
		var owned []int32
		for t := w; t < lay.spec.Tenants; t += nWorkers {
			owned = append(owned, int32(t))
		}
		var src Source = newMixGen(lay, seed*7919+int64(w), owned, wl.ReadShare)
		if wl.Storm && w == 1 {
			src = &stormGen{tenant: 1}
		}
		workers[w] = &worker{model: model, exec: execs[w], src: src}
	}
	return workers
}

// setupWorld onboards every tenant through POST /v1/batch, each worker
// its own tenants, and returns what it attempted.
func setupWorld(lay *layout, workers []*worker) *phaseStats {
	srcs := make([]Source, len(workers))
	counts := make([]int, len(workers))
	for w := range workers {
		var ops []Op
		for t := w; t < lay.spec.Tenants; t += len(workers) {
			ops = append(ops, setupOps(lay, int32(t))...)
		}
		srcs[w], counts[w] = workers[w].src, len(ops)
		workers[w].src = &sliceSource{ops: ops}
	}
	total := &phaseStats{}
	// Workers may hold different numbers of batches; run each to its own count.
	done := make(chan *phaseStats, len(workers)) // one send per worker
	for w := range workers {
		go func(w int) { done <- workers[w].closedCount(counts[w]) }(w)
	}
	for range workers {
		total.merge(<-done)
	}
	for w := range workers {
		workers[w].src = srcs[w]
	}
	return total
}

type sliceSource struct {
	ops []Op
	i   int
}

func (s *sliceSource) Next() Op {
	op := s.ops[s.i]
	s.i++
	return op
}

// checkCounts compares GET /v1/status with the model: every tenant's
// EIPs and SIPs must equal the grants the client saw acknowledged.
func checkCounts(client *http.Client, base string, model *Model) error {
	var st api.StatusResponse
	if err := getJSON(client, base+"/v1/status", &st); err != nil {
		return err
	}
	for _, tm := range model.tenants {
		got := st.Tenants[tm.name]
		want := core.ResourceCounts{EIPs: tm.eips, SIPs: tm.nsip}
		if got.EIPs != want.EIPs || got.SIPs != want.SIPs {
			return fmt.Errorf("bench: tenant %s has %d eips / %d sips, model says %d / %d",
				tm.name, got.EIPs, got.SIPs, want.EIPs, want.SIPs)
		}
	}
	return nil
}

// probeStatuses sends the seeded check probes and returns their statuses.
func probeStatuses(lay *layout, model *Model, ex Executor, seed int64) ([]int, error) {
	all := make([]int32, lay.spec.Tenants)
	for t := range all {
		all[t] = int32(t)
	}
	g := newMixGen(lay, seed, all, 1)
	out := make([]int, checkProbes)
	for i := range out {
		op := g.Next()
		op.Kind = Probe
		call, err := model.Bind(op)
		if err != nil {
			return nil, err
		}
		res := ex.Do(&call.Call)
		if err := model.Done(op, call, &res); err != nil {
			return nil, err
		}
		out[i] = res.Status
	}
	return out, nil
}

// settle ends set-up. A background sweep that began before a batch
// landed diffs against an older view of the declared state and can
// drop the permit lists the batch installed; forced sweeps, with no
// mutation in flight, put them back. Then one compaction, so every run
// starts its measured phases with an empty journal and the compaction
// counter at 0.
func settle(client *http.Client, base string) error {
	for try := 0; ; try++ {
		var sweep core.SweepResult
		if err := postJSON(client, base+"/v1/reconcile/sweep", &sweep); err != nil {
			return err
		}
		if sweep.Repaired == 0 && sweep.Deferred == 0 {
			break
		}
		if try == 16 {
			return fmt.Errorf("bench: the reconciler still repairs after %d forced sweeps on an idle world", try)
		}
	}
	return postJSON(client, base+"/v1/snapshot", nil)
}

// stage is one daemon with its world onboarded: the model of what it
// granted and the two workers that own the model's tenants.
type stage struct {
	d       *Daemon
	model   *Model
	execs   []*httpExec
	workers []*worker
}

// onboard starts a fresh daemon on dataDir and sets the world up
// through it: batches, count check, settle. It returns what set-up
// attempted and how long it took from exec.
func onboard(cfg runConfig, wl Workload, lay *layout, client *http.Client, dataDir string) (*stage, *phaseStats, time.Duration, error) {
	d, err := startDaemon(cfg.bin, dataDir, wl.Fsync, cfg.spec.Hosts)
	if err != nil {
		return nil, nil, 0, err
	}
	if _, err := d.WaitReady(client); err != nil {
		d.Kill()
		return nil, nil, 0, err
	}
	st := &stage{d: d, model: newModel(lay)}
	execs := make([]Executor, nWorkers)
	for w := range execs {
		ex := &httpExec{client: client, base: d.Base}
		st.execs, execs[w] = append(st.execs, ex), ex
	}
	st.workers = newWorkers(wl, lay, st.model, cfg.seed, execs)
	stats := setupWorld(lay, st.workers)
	if stats.failed > 0 {
		err = fmt.Errorf("bench: set-up failed: %w", stats.firstErr)
	} else if err = checkCounts(client, d.Base, st.model); err == nil {
		err = settle(client, d.Base)
	}
	if err != nil {
		d.Kill()
		return nil, nil, 0, err
	}
	return st, stats, time.Since(d.Start), nil
}

// runWorkload is one untraced run: set-up (cfg.setups times, each on a
// fresh daemon; the last one is kept), warm-up, open loop, closed loop,
// scrape, then cfg.recovers times SIGKILL and restart on the same data
// directory, and verify.
func runWorkload(cfg runConfig, wl Workload) (*runResult, error) {
	lay, err := newLayout(cfg.spec)
	if err != nil {
		return nil, err
	}
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	total := &phaseStats{}

	var st *stage
	var dataDir string
	var setupTimes []float64
	for round := 0; round < cfg.setups; round++ {
		if st != nil {
			st.d.Kill()
			os.RemoveAll(dataDir)
		}
		if dataDir, err = os.MkdirTemp(cfg.workDir, "data-"); err != nil {
			return nil, err
		}
		var stats *phaseStats
		var took time.Duration
		if st, stats, took, err = onboard(cfg, wl, lay, client, dataDir); err != nil {
			os.RemoveAll(dataDir)
			return nil, err
		}
		total.merge(stats)
		setupTimes = append(setupTimes, took.Seconds())
	}
	if !cfg.keepDir {
		defer os.RemoveAll(dataDir)
	}
	// Whatever happens below, the daemon current at return is reaped.
	d := st.d
	defer func() { d.Kill() }()

	res := &runResult{Workload: wl.Name, Metrics: map[string]float64{}, Layers: map[string]float64{},
		Samples: map[string]int{}, Argv: d.Argv, DataDir: dataDir,
		SliceS: cfg.slice.Seconds(), Slices: cfg.slices, RateHz: wl.Rate}
	res.Metrics["setup_s"] = median(setupTimes)

	warm, _ := countPhase(wl, warmupOps).run(st.workers)
	total.merge(warm)
	procWarm, err := readProc(d.Pid())
	if err != nil {
		return nil, err
	}

	// Open-loop and closed-loop slices alternate, so that a bad few
	// seconds on a shared machine spoil a minority of each kind and the
	// medians over slices stand. A storm's worker 1 is the noisy tenant,
	// closed-loop in both kinds.
	rates := make([]float64, nWorkers)
	for w := range rates {
		rates[w] = wl.Rate / nWorkers
	}
	if wl.Storm {
		rates[0], rates[1] = wl.Rate, 0
	}
	var open, closed []*phaseStats // per slice; open: the open-loop workers only
	var closedCPU []procSample     // the daemon's processor time each closed slice took
	load := &phaseStats{}
	selfCPU0, wall0 := selfCPUSec(), time.Now()
	for i := 0; i < cfg.slices; i++ {
		all, observer := phase{dur: cfg.slice, rate: rates, seed: cfg.seed*104729 + int64(i)}.run(st.workers)
		load.merge(all)
		open = append(open, observer)
		before, err := readProc(d.Pid())
		if err != nil {
			return nil, err
		}
		all, _ = phase{dur: cfg.slice}.run(st.workers)
		after, err := readProc(d.Pid())
		if err != nil {
			return nil, err
		}
		load.merge(all)
		closed = append(closed, all)
		closedCPU = append(closedCPU, after.minus(before))
	}
	selfCPU := selfCPUSec() - selfCPU0
	loadWall := time.Since(wall0)
	total.merge(load)
	procEnd, err := readProc(d.Pid())
	if err != nil {
		return nil, err
	}

	if d.Exited() {
		return nil, fmt.Errorf("bench: declnetd died under load; stderr tail:\n%s", d.stderr.String())
	}
	res.scrape(client, d, procWarm, load, total.denies)
	// Every run is killed at the same place: a snapshot, then tailOps
	// requests per worker journalled behind it for the restart to replay.
	if err := postJSON(client, d.Base+"/v1/snapshot", nil); err != nil {
		return nil, err
	}
	tail, _ := countPhase(wl, tailOps).run(st.workers)
	total.merge(tail)
	if res.Metrics["data_dir_mb"], err = dirMB(dataDir); err != nil {
		return nil, err
	}
	before, err := probeStatuses(lay, st.model, st.execs[0], cfg.seed+99)
	if err != nil {
		return nil, err
	}

	// Crash and recover, cfg.recovers times over. SIGKILL leaves the
	// page cache intact, so this checks journal and replay logic, not fsync.
	verify := &phaseStats{}
	var recoveries []float64
	for round := 0; round < cfg.recovers; round++ {
		d.Kill()
		client.CloseIdleConnections()
		restarted, err := startDaemon(cfg.bin, dataDir, wl.Fsync, cfg.spec.Hosts)
		if err != nil {
			return nil, err
		}
		d = restarted
		took, err := d.WaitReady(client)
		if err != nil {
			return nil, err
		}
		recoveries = append(recoveries, took.Seconds())
		verify.attempted++
		if err := checkCounts(client, d.Base, st.model); err != nil {
			verify.fail(fmt.Errorf("after recovery %d: %w", round+1, err))
		}
	}
	res.Layers["declnetd.recover_s"] = median(recoveries)
	for _, ex := range st.execs {
		ex.base = d.Base
	}
	verify.attempted += checkProbes
	after, err := probeStatuses(lay, st.model, st.execs[0], cfg.seed+99)
	if err != nil {
		verify.fail(fmt.Errorf("after recovery: %w", err))
	}
	for i := range after {
		if after[i] != before[i] {
			verify.fail(fmt.Errorf("bench: after recovery check probe %d answers %d, before the kill %d", i, after[i], before[i]))
		}
	}
	total.merge(verify)

	res.Metrics["peak_rss_mb"] = procEnd.HWMKiB / 1024
	res.fill(open, closed, closedCPU)
	res.Layers["loadgen.cpu_share"] = selfCPU / loadWall.Seconds() / float64(runtime.NumCPU())
	res.Attempted, res.Failed = total.attempted, total.failed
	res.Layers["loadgen.error_share"] = float64(total.failed) / float64(total.attempted)
	if total.firstErr != nil {
		res.FirstErr = total.firstErr.Error()
	}
	return res, nil
}

// fill derives what the measured slices show: slo_ok_share, the daemon's
// capacity and cost, the latencies and the load generator's own health.
// Each headline number is the median over slices of the slice's own value.
func (r *runResult) fill(open, closed []*phaseStats, closedCPU []procSample) {
	m, l := r.Metrics, r.Layers
	// Closed loop: capacity and the daemon's processor cost per verb.
	var rates, costs []float64
	var cpu procSample
	closedAll := &phaseStats{}
	for i, st := range closed {
		closedAll.merge(st)
		cpu.UserSec, cpu.SysSec = cpu.UserSec+closedCPU[i].UserSec, cpu.SysSec+closedCPU[i].SysSec
		if st.verbs > 0 {
			rates = append(rates, float64(st.verbs)/st.wall.Seconds())
			costs = append(costs, closedCPU[i].CPUSec()*1e6/float64(st.verbs))
		}
	}
	l["declnetd.throughput_ops_s"] = median(rates)
	l["declnetd.cpu_us_per_op"] = median(costs)
	if cpu.CPUSec() > 0 {
		l["declnetd.cpu_user_share"] = cpu.UserSec / cpu.CPUSec()
	}
	var closedLat []time.Duration
	for c := range closedAll.lat {
		closedLat = append(closedLat, closedAll.lat[c]...)
		r.closedMeans[c], r.closedCount[c] = meanDuration(closedAll.lat[c]), len(closedAll.lat[c])
	}
	l["loadgen.closed_mean_us"] = us(meanDuration(closedLat))

	// Open loop: what a tenant waits, timed from when each request was due.
	openAll := &phaseStats{}
	var ok []float64
	var p50 [nClasses][]time.Duration
	for _, st := range open {
		openAll.merge(st)
		ok = append(ok, 1-float64(st.sloMiss)/math.Max(1, float64(st.scheduled)))
		for _, c := range []Class{Read, Write} {
			if len(st.lat[c]) > 0 {
				p50[c] = append(p50[c], medianDuration(st.lat[c]))
			}
		}
	}
	m["slo_ok_share"] = median(ok)
	for c, name := range map[Class]string{Read: "read", Write: "write"} {
		l["loadgen."+name+"_p50_ms"] = ms(medianDuration(p50[c]))
		lat := openAll.lat[c]
		sortDurations(lat)
		l["loadgen."+name+"_p99_ms"] = ms(quantile(lat, 0.99))
		l["loadgen."+name+"_p999_ms"] = ms(quantile(lat, 0.999))
		r.Samples[name] = len(lat)
		if hs := highestSupported(len(lat)); hs < 0.99 {
			r.Flags = append(r.Flags, fmt.Sprintf("loadgen.%s_p99_ms: %d samples support p%g at most (%d beyond it)", name, len(lat), 100*hs, minBeyond))
		}
	}
	if done := openAll.requests(); float64(done) < 0.95*float64(openAll.scheduled) {
		r.Flags = append(r.Flags, fmt.Sprintf("saturated: %d of %d scheduled requests completed", done, openAll.scheduled))
	}
	sortDurations(openAll.late)
	l["loadgen.late_p99_ms"] = ms(quantile(openAll.late, 0.99))
	var max time.Duration
	for _, st := range []*phaseStats{openAll, closedAll} {
		for c := range st.lat {
			for _, v := range st.lat[c] {
				if v > max {
					max = v
				}
			}
		}
	}
	l["loadgen.max_ms"] = ms(max)
	batches := closedAll.lat[Batch]
	sortDurations(batches)
	l["loadgen.batch_p50_ms"] = ms(quantile(batches, 0.5))
	r.Samples["batch"] = len(batches)
}

// dirMB is the size of the files in dir, in MiB.
func dirMB(dir string) (float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var bytes int64
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			bytes += fi.Size()
		}
	}
	return float64(bytes) / (1 << 20), nil
}

// scrape reads what the daemon says about itself just before the kill.
// load is the two measured phases together and before the /proc reading
// taken as they began; denies is every modelled 403 since the daemon started.
func (r *runResult) scrape(client *http.Client, d *Daemon, before procSample, load *phaseStats, denies int) {
	l := r.Layers
	var rec api.ReconcileResponse
	if err := getJSON(client, d.Base+"/v1/reconcile", &rec); err == nil {
		l["reconciler.sweeps"] = float64(rec.Sweeps)
		l["reconciler.repairs"] = float64(rec.Repairs)
		l["reconciler.drift_total"] = float64(rec.DriftPermits + rec.DriftBinds + rec.DriftQuotas)
		if rec.Repairs > 0 || l["reconciler.drift_total"] > 0 {
			r.Flags = append(r.Flags, "reconciler found drift with no chaos injected")
		}
	}
	if body, err := getBody(client, d.Base+"/v1/metrics"); err == nil {
		// The daemon counts every >= 400 response; the model expects
		// exactly the default-off denies.
		l["api.http_errors"] = procField(string(body), "declnet_http_errors_total")
		if int(l["api.http_errors"]) != denies {
			r.Flags = append(r.Flags, fmt.Sprintf("daemon counted %d error responses, model expected %d denies",
				int(l["api.http_errors"]), denies))
		}
	}
	if p, err := readProc(d.Pid()); err == nil && p.IOReadable {
		l["declnetd.write_syscalls_per_op"] = (p.WriteSyscalls - before.WriteSyscalls) / math.Max(1, float64(load.verbs))
		l["declnetd.disk_bytes_per_write"] = (p.WriteBytes - before.WriteBytes) / math.Max(1, float64(load.mutations))
	} else {
		r.Flags = append(r.Flags, "/proc/<pid>/io unreadable: declnetd.write_syscalls_per_op and disk_bytes_per_write are 0")
	}
	for _, f := range []struct{ file, metric string }{{"snapshot.json", "intent.snapshot_mb"}, {"journal.log", "intent.journal_mb"}} {
		if fi, err := os.Stat(filepath.Join(r.DataDir, f.file)); err == nil {
			l[f.metric] = float64(fi.Size()) / (1 << 20)
		}
	}
}
