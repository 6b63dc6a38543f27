package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/metrics"
	"declnet/internal/obs"
	"declnet/internal/permit"
	"declnet/internal/qos"
	"declnet/internal/topo"
)

// populate drives a representative mutation history through the public
// verbs (so every one journals) and returns a few addresses for later
// assertions.
func populate(t *testing.T, c *Cloud, w *topo.Fig1World, pa, pb *Provider) (eip1, eip2, dst, sip addr.IP) {
	t.Helper()
	var err error
	if eip1, err = c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)); err != nil {
		t.Fatal(err)
	}
	if eip2, err = c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 2)); err != nil {
		t.Fatal(err)
	}
	if dst, err = c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1)); err != nil {
		t.Fatal(err)
	}
	if sip, err = c.Tenant("acme").RequestSIP(pa.Name); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").Bind(eip1, sip, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").Bind(eip2, sip, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").CreateGroup("web", eip1, eip2); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").CreateGroup("fleet", eip1, dst); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").SetPermitList(dst, []permit.Entry{addr.NewPrefix(eip1, 32)}, "fleet"); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").SetPermitList(sip, []permit.Entry{pfx("0.0.0.0/0")}); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").Permit(eip1, addr.NewPrefix(dst, 32)); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").SetQoS(pa.Name, w.RegionsA[0], 2e9); err != nil {
		t.Fatal(err)
	}
	c.Tenant("acme").SetPotato(pa.Name, qos.ColdPotato)
	if err := c.Tenant("acme").SetVMEgressCap(eip1, 5e8); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").Register("frontend", sip); err != nil {
		t.Fatal(err)
	}
	// Batch path: one frame with back-references resolved.
	if _, err := c.ApplyBatch("acme", []BatchOp{
		{Op: "request_eip", VM: topo.HostID(w.CloudA, w.RegionsA[1], "az1", 1)},
		{Op: "permit", Target: "$0", Entries: []permit.Entry{pfx("10.0.0.0/8")}},
		{Op: "set_qos", Provider: pa.Name, Region: w.RegionsA[1], Bandwidth: 1e9},
	}); err != nil {
		t.Fatal(err)
	}
	// A release exercises pool free-list replay.
	scratch, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az2", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").ReleaseEIP(scratch); err != nil {
		t.Fatal(err)
	}
	return eip1, eip2, dst, sip
}

// TestKillAndRestartEquivalence is the recovery contract: abandon the
// live world without any shutdown, reopen the store, rebuild a fresh
// world from the journal, and the canonical state digest must match.
func TestKillAndRestartEquivalence(t *testing.T) {
	dir := t.TempDir()
	c, w, pa, pb, _ := fig1Cloud(t)
	l, err := intent.Open(dir, intent.Options{Meta: map[string]string{"seed": "1"}})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableIntent(l)
	eip1, _, _, sip := populate(t, c, w, pa, pb)
	wantDigest := c.StateDigest()
	// The digest's sections, line format and hex are a contract (stores
	// and tools compare them across builds): populate's scripted world is
	// pinned to the string the digest has printed for it since groups
	// became tenant-wide only.
	const pinnedDigest = "cf73f202e7d26d01075ebf9a69f71b9f66dae0265031511438d22fdf809cec8d"
	if wantDigest != pinnedDigest {
		t.Fatalf("StateDigest of the scripted world changed\n got %s\nwant %s", wantDigest, pinnedDigest)
	}
	if st := l.Stats(); st.AppendErrors != 0 {
		t.Fatalf("journal append errors: %+v", st)
	}
	// Crash: no Close, no Compact — the journal alone must carry it.

	l2, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	c2, _, _, _, _ := fig1Cloud(t)
	if err := c2.RestoreIntent(l2.State()); err != nil {
		t.Fatal(err)
	}
	if got := c2.StateDigest(); got != wantDigest {
		t.Fatalf("digest mismatch after restart\n got %s\nwant %s", got, wantDigest)
	}
	// The recovered world keeps functioning: pools continue where the
	// crashed world's cursor stopped.
	next1, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az2", 2))
	if err != nil {
		t.Fatal(err)
	}
	next2, err := c2.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az2", 2))
	if err != nil {
		t.Fatal(err)
	}
	if next1 != next2 {
		t.Fatalf("pool divergence after restart: live grants %s, recovered grants %s", next1, next2)
	}
	// Recovered permit state enforces identically.
	if !c2.Admitted(eip1, sip) {
		t.Error("recovered world rejects a flow the declared permits admit")
	}
}

// TestRestoreIntentThenEnable is the daemon's boot order: restore must
// not re-journal (the store's Seq must not advance).
func TestRestoreIntentThenEnable(t *testing.T) {
	dir := t.TempDir()
	c, w, pa, pb, _ := fig1Cloud(t)
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableIntent(l)
	populate(t, c, w, pa, pb)
	seq := l.Seq()
	l.Close()

	l2, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	c2, _, _, _, _ := fig1Cloud(t)
	if err := c2.RestoreIntent(l2.State()); err != nil {
		t.Fatal(err)
	}
	if l2.Seq() != seq {
		t.Fatalf("restore advanced the journal: seq %d -> %d", seq, l2.Seq())
	}
	c2.EnableIntent(l2)
	// New mutations journal again from the recovered sequence.
	if _, err := c2.Tenant("acme").RequestEIP(topo.HostID("cloudA", "A1", "az2", 2)); err == nil {
		if l2.Seq() != seq+1 {
			t.Fatalf("post-restore mutation got seq %d, want %d", l2.Seq(), seq+1)
		}
	}
}

// sweepWork strips a SweepResult down to its work fields — scanning a
// converged world is free, so tests about "nothing to do" ignore the
// scan-accounting counters.
func sweepWork(res SweepResult) SweepResult {
	res.Scanned, res.DirtyHits, res.AntiEntropyScanned = 0, 0, 0
	return res
}

func TestReconcilerRepairsDrift(t *testing.T) {
	dir := t.TempDir()
	c, w, pa, pb, _ := fig1Cloud(t)
	reg := metrics.NewRegistry()
	c.EnableObservability(obs.NewTracer(0), reg)
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c.EnableIntent(l)
	eip1, eip2, dst, sip := populate(t, c, w, pa, pb)
	r, err := c.EnableReconciler(ReconcilerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The zero-value config is K=1: every sweep walks the whole world.
	if k := r.Status().AntiEntropyK; k != 1 {
		t.Fatalf("zero-value config reports anti_entropy_k %d, want 1", k)
	}

	// A converged world has nothing to do (scan accounting aside).
	if res := r.RunSweep(); sweepWork(res) != (SweepResult{}) {
		t.Fatalf("sweep on a converged world found work: %+v", res)
	}

	// Inject one divergence per surface.
	if !c.DriftWipePermit(dst) {
		t.Fatal("DriftWipePermit failed")
	}
	if !c.DriftUnbind(sip, eip2) {
		t.Fatal("DriftUnbind failed")
	}
	if !c.DriftZeroQuota(pa.Name, "acme", w.RegionsA[0]) {
		t.Fatal("DriftZeroQuota failed")
	}
	if c.Admitted(eip1, dst) {
		t.Fatal("drift injection did not break admission")
	}

	res := r.RunSweep()
	if res.DriftPermits != 1 || res.DriftBinds != 1 || res.DriftQuotas != 1 {
		t.Fatalf("sweep drift counts = %+v, want 1 per surface", res)
	}
	if res.Repaired != 3 || res.Deferred != 0 {
		t.Fatalf("sweep repaired %d deferred %d, want 3 and 0", res.Repaired, res.Deferred)
	}
	// No hook marks a dirty set: one sweep's rotation found all three.
	if res.DirtyHits != 0 || res.AntiEntropyScanned != res.Scanned {
		t.Fatalf("hook-injected drift was not found by the rotation alone: %+v", res)
	}
	// Converged again — and actually repaired, not just counted.
	if res := r.RunSweep(); sweepWork(res) != (SweepResult{}) {
		t.Fatalf("second sweep still finds work: %+v", res)
	}
	if !c.Admitted(eip1, dst) {
		t.Error("permit repair did not restore admission")
	}
	found := false
	for _, be := range mustService(t, pa, sip).balancer.Backends() {
		if be.EIP == eip2 {
			found = true
		}
	}
	if !found {
		t.Error("bind repair did not restore the backend")
	}
	if tq, ok := pa.quotaOf("acme", w.RegionsA[0]); !ok || tq.quota != 2e9 {
		t.Error("quota repair did not restore the declared rate")
	}

	// Every repair carries a reconcile trace event with a drift cause.
	var recEvs []obs.Event
	for _, ev := range c.Tracer().Recent("acme", 0) {
		if ev.Kind == obs.Reconcile {
			recEvs = append(recEvs, ev)
		}
	}
	if len(recEvs) != 3 {
		t.Fatalf("got %d reconcile trace events, want 3", len(recEvs))
	}
	for _, ev := range recEvs {
		if ev.Verdict != "repaired" || ev.Cause == "" {
			t.Errorf("trace event %+v lacks verdict/cause", ev)
		}
	}
	if r.Status().Repairs != 3 {
		t.Errorf("Status.Repairs = %d, want 3", r.Status().Repairs)
	}
}

// mustService looks a service up in the provider's address table.
func mustService(t *testing.T, p *Provider, sip addr.IP) *service {
	t.Helper()
	svc, ok := p.services.Get(sip)
	if !ok {
		t.Fatalf("service %s not found", sip)
	}
	return svc
}

func TestReconcilerDropsUndeclared(t *testing.T) {
	dir := t.TempDir()
	c, w, pa, pb, _ := fig1Cloud(t)
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c.EnableIntent(l)
	eip1, _, dst, _ := populate(t, c, w, pa, pb)
	_ = dst
	r, err := c.EnableReconciler(ReconcilerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Grant an EIP *without* journaling a permit list for it, then slip a
	// list into the engine directly: an undeclared install, e.g. a stale
	// push that survived a rollback.
	victim, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az2", 1))
	if err != nil {
		t.Fatal(err)
	}
	pb.Permits.Set(victim, []permit.Entry{addr.NewPrefix(eip1, 32)})
	if !c.Admitted(eip1, victim) {
		t.Fatal("setup: direct engine install did not admit")
	}
	res := r.RunSweep()
	if res.DriftPermits != 1 || res.Repaired != 1 {
		t.Fatalf("sweep = %+v, want the undeclared list found and dropped", res)
	}
	if c.Admitted(eip1, victim) {
		t.Error("undeclared permit list survived the sweep")
	}
}

func TestReconcilerBudgetDefers(t *testing.T) {
	dir := t.TempDir()
	c, w, pa, pb, _ := fig1Cloud(t)
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c.EnableIntent(l)
	eip1, eip2, dst, sip := populate(t, c, w, pa, pb)
	_ = eip1
	r, err := c.EnableReconciler(ReconcilerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r.budget = 1
	c.DriftWipePermit(dst)
	c.DriftUnbind(sip, eip2)
	res := r.RunSweep()
	if res.Repaired != 1 || res.Deferred != 1 {
		t.Fatalf("budget 1 sweep = %+v, want 1 repaired 1 deferred", res)
	}
	if r.Status().QueueDepth != 1 {
		t.Errorf("QueueDepth = %d, want 1", r.Status().QueueDepth)
	}
	// The next sweep drains the queue.
	res = r.RunSweep()
	if res.Repaired != 1 || res.Deferred != 0 {
		t.Fatalf("drain sweep = %+v, want 1 repaired 0 deferred", res)
	}
	if res := r.RunSweep(); sweepWork(res) != (SweepResult{}) {
		t.Fatalf("world not converged after drain: %+v", res)
	}
}

func TestReconcilerStartStop(t *testing.T) {
	dir := t.TempDir()
	c, w, pa, pb, _ := fig1Cloud(t)
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c.EnableIntent(l)
	populate(t, c, w, pa, pb)
	const interval = 2 * time.Millisecond
	r, err := c.EnableReconciler(ReconcilerConfig{Interval: interval})
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	r.Start()
	r.Start() // idempotent
	for deadline := begin.Add(5 * time.Second); r.Status().Sweeps < 3; time.Sleep(interval) {
		if time.Now().After(deadline) {
			t.Fatal("background sweeps never fired")
		}
	}
	r.Stop()
	r.Stop() // idempotent
	elapsed := time.Since(begin)
	if s := r.Status(); !s.Enabled || s.Running {
		t.Errorf("status after stop = %+v", s)
	}
	// One goroutine behind one ticker: at most one sweep per elapsed
	// interval.
	sweeps := r.Status().Sweeps
	if most := uint64(elapsed/interval) + 1; sweeps > most {
		t.Errorf("%d sweeps in %v at interval %v, want at most %d", sweeps, elapsed, interval, most)
	}
	// Stop waited the loop out: no sweep in flight, none afterwards.
	time.Sleep(5 * interval)
	if n := r.Status().Sweeps; n != sweeps {
		t.Errorf("sweeps kept running after Stop: %d -> %d", sweeps, n)
	}
}

// TestConcurrentSweepsCoverEveryPhase: K forced sweeps started at once
// still visit K distinct phases of the anti-entropy rotation, so drift
// injected behind the recorder's back in every phase is repaired by
// them. Side by side, two sweeps could read one phase and leave the next
// for a whole rotation; RunSweep runs them one at a time.
func TestConcurrentSweepsCoverEveryPhase(t *testing.T) {
	const k = 4
	c, w, _, pb, _ := fig1Cloud(t)
	l, err := intent.Open(t.TempDir(), intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c.EnableIntent(l)
	// One declared list in each phase: a permit target's phase is its
	// address mod K, and consecutive grants are consecutive addresses.
	targets := make([]addr.IP, k)
	for i := range targets {
		eip, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Tenant("acme").SetPermitList(eip, []permit.Entry{pfx("10.0.0.0/8")}); err != nil {
			t.Fatal(err)
		}
		targets[uint32(eip)%k] = eip
		if i == k-1 && slices.Contains(targets, 0) {
			t.Fatalf("grants %v do not cover all %d phases", targets, k)
		}
	}
	r, err := c.EnableReconciler(ReconcilerConfig{AntiEntropyK: k})
	if err != nil {
		t.Fatal(err)
	}
	r.RunSweep() // consume the setup's dirty marks
	for round := 0; round < 8; round++ {
		for _, tgt := range targets {
			if !c.DriftWipePermit(tgt) {
				t.Fatalf("round %d: DriftWipePermit(%s) failed", round, tgt)
			}
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for range k {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				r.RunSweep()
			}()
		}
		close(start)
		wg.Wait()
		for _, tgt := range targets {
			if _, installed := pb.Permits.List(tgt); !installed {
				t.Fatalf("round %d: %d concurrent sweeps left %s (phase %d) unrepaired", round, k, tgt, uint32(tgt)%k)
			}
		}
	}
}

func TestEnableReconcilerRequiresIntent(t *testing.T) {
	c, _, _, _, _ := fig1Cloud(t)
	if _, err := c.EnableReconciler(ReconcilerConfig{}); err == nil {
		t.Fatal("EnableReconciler without EnableIntent succeeded")
	}
	if c.Reconciler() != nil {
		t.Fatal("Reconciler() non-nil after failed enable")
	}
}
