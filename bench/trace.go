package main

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"declnet"
	"declnet/internal/addr"
	"declnet/internal/api"
	"declnet/internal/core"
	"declnet/internal/intent"
	"declnet/internal/metrics"
	"declnet/internal/obs"
	"declnet/internal/qos"
	"declnet/internal/slo"
	"declnet/internal/topo"
)

// The traced run replays a workload's operations in this process, one
// at a time, at five depths of the stack. Each depth adds one layer to
// the one before, so the difference between two adjacent depths' mean
// latencies is the added layer's self time, and the rows sum to the
// deepest. Spans are recorded here, around calls into each layer's
// public functions; nothing inside the program is touched.
const (
	depthCore      = iota // (a) *declnet.Tenant methods: no telemetry, no store
	depthTelemetry        // (b) + EnableObservability and EnableSLO
	depthIntent           // (c) + intent.Open, EnableIntent, EnableReconciler (not started)
	depthAPI              // (d) api.Server.ServeHTTP into a ResponseRecorder
	depthDaemon           // (e) httptest.NewServer over loopback, one connection
	nDepths
)

var depthNames = [nDepths]string{"core", "telemetry", "intent", "api", "declnetd"}

const (
	replayOps      = 16384 // timed ops per depth
	smokeReplayOps = 512
	leafReps       = 4096 // calls per leaf timing
)

// span is one recorded interval: name, start and end since the log's
// origin, the span that caused it, and the request it belongs to.
type span struct {
	name       string
	start, end time.Duration
	parent     int32
	req        int32
}

type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) add(name string, start, end time.Time, parent, req int32) int32 {
	l.spans = append(l.spans, span{name, start.Sub(l.origin), end.Sub(l.origin), parent, req})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) writeCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start,end,parent,req")
	for _, s := range l.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// depthWorld is one freshly built stack, as deep as asked.
type depthWorld struct {
	world *declnet.World
	store *intent.Log
	exec  Executor
	close func()
}

func daemonIntentOptions(fsync string, hosts int) (intent.Options, error) {
	policy, err := intent.ParseSyncPolicy(fsync)
	return intent.Options{
		Sync: policy, SyncEvery: 64, CompactEvery: 4096,
		Meta: map[string]string{"seed": "1", "hosts": strconv.Itoa(hosts)},
	}, err
}

// buildDepth wires a world the way cmd/declnetd does, stopping at depth.
func buildDepth(depth int, wl Workload, hosts int, dir string) (*depthWorld, error) {
	world, err := declnet.NewFig1World(1, hosts)
	if err != nil {
		return nil, err
	}
	dw := &depthWorld{world: world, close: func() {}}
	if depth >= depthIntent {
		opts, err := daemonIntentOptions(wl.Fsync, hosts)
		if err != nil {
			return nil, err
		}
		if dw.store, err = intent.Open(dir, opts); err != nil {
			return nil, err
		}
		world.EnableIntent(dw.store)
		dw.close = func() { dw.store.Close() }
	}
	switch {
	case depth >= depthAPI:
		srv := api.NewServerWith(world, api.Options{})
		dw.exec = &handlerExec{h: srv}
		if depth == depthDaemon {
			ts := httptest.NewServer(srv)
			client := newHTTPClient()
			dw.exec = &httpExec{client: client, base: ts.URL}
			closeStore := dw.close
			dw.close = func() { client.CloseIdleConnections(); ts.Close(); closeStore() }
		}
	case depth >= depthTelemetry:
		world.EnableObservability(obs.NewTracer(0), metrics.NewRegistry())
		world.EnableSLO(slo.NewPlane(slo.Config{}))
		fallthrough
	default:
		dw.exec = &coreExec{world: world}
	}
	if depth >= depthIntent {
		if _, err := world.EnableReconciler(core.ReconcilerConfig{Interval: time.Second, AntiEntropyK: 8}); err != nil {
			dw.close()
			return nil, err
		}
	}
	return dw, nil
}

// depthStats is what one depth's replay measured.
type depthStats struct {
	mean     [nClasses]time.Duration // batch: the set-up's onboarding batches
	count    [nClasses]int
	batchOps float64 // mean ops per batch
	reqMean  float64 // bytes
	respMean float64
	lookups  uint64 // permit-engine lookups the timed reads caused
	inputs   leafInputs
}

// permitLookups sums both clouds' admission-check counters.
func permitLookups(world *declnet.World) uint64 {
	var n uint64
	for _, name := range []string{world.Fig1.CloudA, world.Fig1.CloudB} {
		if p, ok := world.Cloud.Provider(name); ok {
			n += p.Permits.Lookups.Load()
		}
	}
	return n
}

// leafInputs are the arguments the replayed trace handed each leaf.
type leafInputs struct {
	reads   [][2]string // src, dst
	sips    []string
	permits []Call
}

// replayOrder interleaves the two workers' sources into one sequence;
// a storm worker's batches are thinned to one per 16 single verbs.
func replayOrder(wl Workload, workers []*worker) func() Op {
	i := 0
	return func() Op {
		i++
		w := workers[i%2]
		if wl.Storm && i%16 != 1 {
			w = workers[0]
		}
		return w.src.Next()
	}
}

// replay sets the world up through the depth's executor, then times the
// workload's first replayOps operations one by one.
func replay(depth int, dw *depthWorld, wl Workload, lay *layout, cfg runConfig, log *spanLog) (*depthStats, error) {
	seed := cfg.seed
	// An eighth again of untimed ops first, so caches are as full as in
	// the daemon run.
	warmup := cfg.replay / 8
	layer := depthNames[depth]
	model := newModel(lay)
	workers := newWorkers(wl, lay, model, seed, []Executor{dw.exec, dw.exec})
	ds := &depthStats{}
	root := log.add(layer+".replay", time.Now(), time.Now(), -1, -1)
	var sum [nClasses]time.Duration
	var bytesIn, bytesOut, requests, batchOps int
	timed := func(op Op, req int32, record bool) error {
		call, err := model.Bind(op)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res := dw.exec.Do(&call.Call)
		t1 := time.Now()
		if err := model.Done(op, call, &res); err != nil {
			return fmt.Errorf("traced replay at depth %s: %w", layer, err)
		}
		if !record {
			return nil
		}
		log.add(layer+"."+op.Kind.String(), t0, t1, root, req)
		c := op.Kind.Class()
		sum[c] += t1.Sub(t0)
		ds.count[c]++
		if c == Batch {
			batchOps += call.Verbs()
		} else {
			bytesIn, bytesOut, requests = bytesIn+res.ReqBytes, bytesOut+res.RespBytes, requests+1
		}
		ds.inputs.note(op, &call.Call)
		return nil
	}
	for t := 0; t < lay.spec.Tenants; t++ {
		for _, op := range setupOps(lay, int32(t)) {
			if err := timed(op, -1, true); err != nil {
				return nil, err
			}
		}
	}
	if dw.store != nil {
		// As the daemon run does after set-up.
		if err := dw.store.Compact(); err != nil {
			return nil, err
		}
	}
	next := replayOrder(wl, workers)
	var lookups0 uint64
	for i := -warmup; i < cfg.replay; i++ {
		if i == 0 {
			lookups0 = permitLookups(dw.world)
		}
		op := next()
		if op.Kind.Class() == Batch {
			// Storm batches keep the world honest but are not the batch
			// rows: those are the set-up's, the same at every workload.
			if err := timed(op, int32(i), false); err != nil {
				return nil, err
			}
			continue
		}
		if err := timed(op, int32(i), i >= 0); err != nil {
			return nil, err
		}
	}
	ds.lookups = permitLookups(dw.world) - lookups0
	log.spans[root].end = time.Since(log.origin)
	for c := range sum {
		if ds.count[c] > 0 {
			ds.mean[c] = sum[c] / time.Duration(ds.count[c])
		}
	}
	if ds.count[Batch] > 0 {
		ds.batchOps = float64(batchOps) / float64(ds.count[Batch])
	}
	if requests > 0 {
		ds.reqMean, ds.respMean = float64(bytesIn)/float64(requests), float64(bytesOut)/float64(requests)
	}
	return ds, nil
}

func (in *leafInputs) note(op Op, c *Call) {
	switch op.Kind {
	case Probe, Explain:
		if !op.Flag {
			in.reads = append(in.reads, [2]string{c.Src, c.Dst})
		}
		if op.SIP {
			in.sips = append(in.sips, c.Dst)
		}
	case SetPermit:
		in.permits = append(in.permits, *c)
	}
}

// perCall times fn over n calls and returns the mean.
func perCall(n int, fn func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(t0) / time.Duration(n)
}

// leafTimings calls the leaves under core directly, on the inputs the
// replay gave them, in the depth-(a) world the replay left behind.
func leafTimings(world *declnet.World, ds *depthStats, out map[string]float64) error {
	in := &ds.inputs
	cloud := world.Cloud
	type pair struct {
		src, dst addr.IP
		prov     *core.Provider
		from, to topo.NodeID
	}
	var pairs []pair
	for _, r := range in.reads {
		src, err1 := addr.ParseIP(r[0])
		dst, err2 := addr.ParseIP(r[1])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bench: bad leaf input %v", r)
		}
		sp, ok1 := cloud.ProviderOf(src)
		dp, ok2 := cloud.ProviderOf(dst)
		if !ok1 || !ok2 {
			return fmt.Errorf("bench: leaf input %v names no granted address", r)
		}
		p := pair{src: src, dst: dst, prov: dp}
		p.from, _ = sp.Lookup(src)
		p.to, _ = dp.Lookup(dst) // "" for a SIP: those pairs time permits only
		pairs = append(pairs, p)
	}
	if len(pairs) == 0 || len(in.permits) == 0 || len(in.sips) == 0 {
		return fmt.Errorf("bench: the replayed trace has no reads, permits or SIP probes to time leaves on")
	}
	// Explain reads the permit engine without counting a lookup; probes count one each.
	out["core.permit_lookups_per_read"] = float64(ds.lookups) / float64(ds.count[Read])
	r := cloud.Router()
	out["qos.path_hit_ratio"] = float64(r.Hits()) / float64(r.Hits()+r.Misses())

	out["permit.check_ns"] = float64(perCall(leafReps, func(i int) {
		p := pairs[i%len(pairs)]
		p.prov.Permits.Check(p.src, p.dst)
	}).Nanoseconds())
	var routed []pair
	for _, p := range pairs {
		if p.to != "" {
			routed = append(routed, p)
		}
	}
	out["qos.path_hit_ns"] = float64(perCall(leafReps, func(i int) {
		p := routed[i%len(routed)]
		r.PathFor(qos.HotPotato, p.from, p.to)
	}).Nanoseconds())
	// A fresh router over the same graph: every distinct pair misses once.
	cold := qos.NewRouter(r.Graph())
	seen := map[[2]topo.NodeID]bool{}
	var distinct []pair
	for _, p := range routed {
		if k := [2]topo.NodeID{p.from, p.to}; !seen[k] {
			seen[k] = true
			distinct = append(distinct, p)
		}
	}
	out["qos.path_miss_us"] = us(perCall(len(distinct), func(i int) {
		cold.PathFor(qos.HotPotato, distinct[i].from, distinct[i].to)
	}))
	sip, err := addr.ParseIP(in.sips[0])
	if err != nil {
		return err
	}
	sp, _ := cloud.ProviderOf(sip)
	bal, ok := sp.Service(sip)
	if !ok {
		return fmt.Errorf("bench: %s is not a SIP", sip)
	}
	out["lb.pick_ns"] = float64(perCall(leafReps, func(int) {
		if be, err := bal.Pick(); err == nil {
			bal.Release(be)
		}
	}).Nanoseconds())
	type listed struct {
		prov    *core.Provider
		target  addr.IP
		entries []addr.Prefix
	}
	var lists []listed
	for i := range in.permits {
		c := &in.permits[i]
		target, err := addr.ParseIP(c.Target)
		if err != nil {
			return err
		}
		entries, err := parseEntries(c.Entries)
		if err != nil {
			return err
		}
		p, _ := cloud.ProviderOf(target)
		lists = append(lists, listed{p, target, entries})
	}
	out["permit.set_us"] = us(perCall(leafReps, func(i int) {
		l := lists[i%len(lists)]
		l.prov.Permits.Set(l.target, l.entries)
	}))
	return nil
}

// journalTimings appends the trace's set_permit records straight to a
// scratch log, without and with an fsync per record.
func journalTimings(dir string, in *leafInputs, out map[string]float64) error {
	var ops []intent.Op
	for i := range in.permits {
		c := &in.permits[i]
		target, err := addr.ParseIP(c.Target)
		if err != nil {
			return err
		}
		entries, err := parseEntries(c.Entries)
		if err != nil {
			return err
		}
		ops = append(ops, intent.Op{Verb: intent.OpSetPermit, Provider: "cloudA", Target: target, Entries: entries})
	}
	n := len(ops)
	if n > 1024 {
		n = 1024 // an fsync each: a second or so on a disk
	}
	var mean [2]time.Duration
	for i, policy := range []intent.SyncPolicy{intent.SyncNone, intent.SyncAlways} {
		sub := filepath.Join(dir, "journal-"+policy.String())
		l, err := intent.Open(sub, intent.Options{Sync: policy})
		if err != nil {
			return err
		}
		mean[i] = perCall(n, func(j int) { l.Record("t000", ops[j]) })
		stats := l.Stats()
		if err := l.Close(); err != nil {
			return err
		}
		if stats.AppendErrors > 0 {
			return fmt.Errorf("bench: scratch journal: %d append errors (%s)", stats.AppendErrors, stats.LastError)
		}
		if policy == intent.SyncNone {
			if fi, err := os.Stat(filepath.Join(sub, "journal.log")); err == nil {
				out["intent.journal_bytes_per_record"] = float64(fi.Size()) / float64(n+1)
			}
		}
	}
	out["intent.append_us"] = us(mean[0])
	out["intent.fsync_us"] = us(mean[1] - mean[0])
	return nil
}

// storeTimings measures the store and reconciler at world size, in the
// depth-(c) world the replay left converged.
func storeTimings(dw *depthWorld, dir string, in *leafInputs, out map[string]float64, flags *[]string) error {
	stats := dw.store.Stats()
	// The replay itself compacted once after set-up.
	out["intent.compactions"] = float64(stats.Compactions) - 1
	out["intent.append_errors"] = float64(stats.AppendErrors)
	if stats.AppendErrors > 0 {
		*flags = append(*flags, fmt.Sprintf("INTENT APPEND ERRORS: %d, last: %s — the journal has a hole", stats.AppendErrors, stats.LastError))
	}
	const reps = 3
	var compactErr error
	out["intent.compact_ms"] = ms(perCall(reps, func(int) {
		if err := dw.store.Compact(); err != nil {
			compactErr = err
		}
	}))
	if compactErr != nil {
		return compactErr
	}
	if fi, err := os.Stat(filepath.Join(dir, "snapshot.json")); err == nil {
		out["intent.snapshot_mb"] = float64(fi.Size()) / (1 << 20)
	}
	// What the daemon's reconciler does every interval under load: after
	// a permit list has changed, refresh its view of the declared state,
	// then sweep. One full anti-entropy rotation, with one of the trace's
	// own set_permit calls before each sweep.
	rec := dw.world.Reconciler()
	var view, sweep time.Duration
	var scanned, drift int
	const sweeps = 8
	for i := 0; i < sweeps; i++ {
		call := in.permits[i%len(in.permits)]
		if res := dw.exec.Do(&call); res.Err != nil || res.Status != http.StatusOK {
			return fmt.Errorf("bench: set_permit before a sweep: status %d: %v", res.Status, res.Err)
		}
		t0 := time.Now()
		dw.store.View()
		t1 := time.Now()
		res := rec.RunSweep()
		view, sweep = view+t1.Sub(t0), sweep+time.Since(t0)
		scanned += res.Scanned
		drift += res.DriftPermits + res.DriftBinds + res.DriftQuotas
	}
	out["intent.view_us"] = us(view / sweeps)
	out["reconciler.sweep_ms"] = ms(sweep / sweeps)
	out["reconciler.scanned_per_sweep"] = float64(scanned) / sweeps
	if drift > 0 {
		*flags = append(*flags, fmt.Sprintf("in-process reconciler found %d drifted targets on a converged world", drift))
	}
	return nil
}

// recoveryTimings does by hand what a restarting daemon does with the
// data directory the untraced run left behind.
func recoveryTimings(dataDir string, wl Workload, hosts int, out map[string]float64) error {
	opts, err := daemonIntentOptions(wl.Fsync, hosts)
	if err != nil {
		return err
	}
	t0 := time.Now()
	store, err := intent.Open(dataDir, opts)
	if err != nil {
		return err
	}
	defer store.Close()
	out["intent.open_s"] = time.Since(t0).Seconds()
	world, err := declnet.NewFig1World(1, hosts)
	if err != nil {
		return err
	}
	t0 = time.Now()
	if err := world.RestoreIntent(store.State()); err != nil {
		return err
	}
	out["core.restore_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	world.StateDigest()
	out["core.digest_ms"] = ms(time.Since(t0))
	return nil
}

// tracedRun produces one workload's per-layer metrics: a daemon run for
// what only the deployed process can show, then the five depths.
func tracedRun(cfg runConfig, wl Workload, log *spanLog) (*runResult, error) {
	cfg.keepDir = true
	res, err := runWorkload(cfg, wl)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(res.DataDir)
	out := res.Layers
	if err := recoveryTimings(res.DataDir, wl, cfg.spec.Hosts, out); err != nil {
		return nil, err
	}
	lay, err := newLayout(cfg.spec)
	if err != nil {
		return nil, err
	}
	var depths [nDepths]*depthStats
	for depth := 0; depth < nDepths; depth++ {
		dir, err := os.MkdirTemp(cfg.workDir, "depth-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		dw, err := buildDepth(depth, wl, cfg.spec.Hosts, dir)
		if err != nil {
			return nil, err
		}
		ds, err := replay(depth, dw, wl, lay, cfg, log)
		if err == nil && depth == depthCore {
			if err = leafTimings(dw.world, ds, out); err == nil {
				err = journalTimings(dir, &ds.inputs, out)
			}
		}
		if err == nil && depth == depthIntent {
			err = storeTimings(dw, dir, &ds.inputs, out, &res.Flags)
		}
		dw.close()
		if err != nil {
			return nil, err
		}
		depths[depth] = ds
	}

	self := func(depth int, c Class) float64 {
		if depth == 0 {
			return us(depths[0].mean[c])
		}
		return us(depths[depth].mean[c] - depths[depth-1].mean[c])
	}
	out["core.read_self_us"] = self(depthCore, Read)
	out["core.write_self_us"] = self(depthCore, Write)
	out["core.batch_op_us"] = us(depths[depthCore].mean[Batch]) / depths[depthCore].batchOps
	out["telemetry.read_self_us"] = self(depthTelemetry, Read)
	out["telemetry.write_self_us"] = self(depthTelemetry, Write)
	out["intent.record_self_us"] = self(depthIntent, Write)
	out["api.read_self_us"] = self(depthAPI, Read)
	out["api.write_self_us"] = self(depthAPI, Write)
	out["api.batch_self_us"] = self(depthAPI, Batch)
	out["api.request_bytes_mean"] = depths[depthAPI].reqMean
	out["api.response_bytes_mean"] = depths[depthAPI].respMean
	out["declnetd.read_self_us"] = self(depthDaemon, Read)
	out["declnetd.write_self_us"] = self(depthDaemon, Write)

	// Coverage: the deepest replay's mean against the daemon run's closed
	// loop, class by class at the closed loop's own mix.
	var traced, untraced float64
	for c := Class(0); c < nClasses; c++ {
		n := float64(res.closedCount[c])
		traced += n * us(depths[depthDaemon].mean[c])
		untraced += n * us(res.closedMeans[c])
	}
	out["trace.coverage"] = traced / untraced
	if cov := out["trace.coverage"]; cov < 0.6 || cov > 1.2 {
		res.Flags = append(res.Flags, fmt.Sprintf("UNRELIABLE LAYER TABLE: trace.coverage %.2f is outside 0.6-1.2", cov))
	}
	return res, nil
}
