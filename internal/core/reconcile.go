// Desired-state reconciliation: the convergence loop that keeps the
// installed dataplane state (permit engines, SIP balancers, QoS limiters)
// equal to the declared intent. Declared state is the cloud's one
// intent.State, which every verb folds into and a store replays; the dataplane can
// drift from it through faults, lost updates, or the chaos hooks in
// intent.go. A sweep copies nothing out of the log: it asks the log's
// view which targets this phase visits and reads each one's declared
// entry — immutable once stored, so shared rather than copied — as it
// reaches it, holding no lock while it compares. Mutations keep landing
// while the sweep walks, so a mismatch is only a candidate: the check
// then takes the target's shard lock, re-reads that one target's
// declared entry from the log (shard lock -> log lock, the order every
// verb's Record uses), and only what still differs is drift, which it
// counts and repairs to that value. A mutation applies and records under
// its shard lock, so under that lock the declared entry and the
// dataplane can disagree only through real drift: a sweep never reverts
// an acknowledged mutation, and the drift counters never count one.
//
// There is one sweep, planned once. Per surface (permit lists, binds,
// quotas) it visits this phase's slice of a rotating anti-entropy
// partition — 1/K of the declared world and 1/K of the installed permit
// stripes. A verb leaves what it touched converged, so verbs mark
// nothing; the one writer that changes a reconciled surface outside a
// verb, the fault monitor, marks a permit target whose deferred update
// landed or timed out, and the sweep checks those marks first, skipping
// them in the rotation, so each target is checked, and its drift
// counted, at most once per sweep. The marks and the declared slices are
// taken once per sweep and shared by every provider, each checking the
// targets it owns. K (ReconcilerConfig.AntiEntropyK) is the
// detection-lag bound: drift injected behind the recorder's back (the
// Drift* chaos hooks) is found within K sweeps of injection. K=1 is one
// bucket: every sweep walks the whole world.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/lb"
	"declnet/internal/metrics"
	"declnet/internal/obs"
)

// ReconcilerConfig tunes the convergence loop.
type ReconcilerConfig struct {
	// Interval is the wall-clock sweep period for Start's background
	// goroutine (default 1s).
	Interval time.Duration
	// AntiEntropyK is K of the anti-entropy rotation: besides the
	// fault monitor's marked targets, each sweep checks 1/K of the
	// declared world and of the installed permit stripes, so drift
	// nothing marked is found within K sweeps. Values below 1 mean 1 —
	// every sweep walks the whole world (what E15 and the tests run). The
	// daemon runs K=8.
	AntiEntropyK int
}

// repairBudget caps repairs per sweep; divergence beyond it stays queued
// for the next sweep (reported as queue depth).
const repairBudget = 256

// SweepResult summarizes one reconciliation sweep.
type SweepResult struct {
	DriftPermits int `json:"drift_permits"`
	DriftBinds   int `json:"drift_binds"`
	DriftQuotas  int `json:"drift_quotas"`
	Repaired     int `json:"repaired"`
	// Deferred counts divergences found but left for the next sweep
	// (repair budget exhausted or enforcement point unreachable).
	Deferred int `json:"deferred"`
	// Scanned counts targets examined this sweep, across every surface:
	// the marked targets plus the rotation slice.
	Scanned int `json:"scanned"`
	// DirtyHits counts checks of targets the fault monitor marked (a
	// deferred permit update landed or timed out) that confirmed real
	// drift.
	DirtyHits int `json:"dirty_hits"`
	// AntiEntropyScanned counts checks driven by the rotation rather
	// than a mark.
	AntiEntropyScanned int `json:"anti_entropy_scanned"`
}

// Reconciler owns the convergence loop over one Cloud. Create it with
// EnableReconciler; drive it synchronously with RunSweep (tests, the
// chaos soak) or in the background with Start (the daemon).
type Reconciler struct {
	cloud  *Cloud
	cfg    ReconcilerConfig
	budget int // repairs per sweep: repairBudget; tests lower it

	sweeps       atomic.Uint64
	repairs      atomic.Uint64
	driftPermits atomic.Uint64
	driftBinds   atomic.Uint64
	driftQuotas  atomic.Uint64
	scanned      atomic.Uint64
	dirtyHits    atomic.Uint64
	antiScanned  atomic.Uint64
	queueDepth   atomic.Int64
	lastSweepNs  atomic.Int64 // wall clock, UnixNano; 0 = never
	lastSweepDur atomic.Int64 // nanoseconds

	// sweeping serializes RunSweep: the marks are consumables and the
	// phase follows the sweep count, so two sweeps side by side would
	// visit one phase twice and skip the next for a whole rotation.
	sweeping sync.Mutex

	mu      sync.Mutex
	running bool
	stop    chan struct{}
	done    sync.WaitGroup
}

// EnableReconciler builds the convergence loop over the cloud's declared
// state, with or without a store attached. It is a set-up step: call it
// before the cloud is shared (Start may come later), and after
// EnableIntent or RestoreIntent, if either.
func (c *Cloud) EnableReconciler(cfg ReconcilerConfig) (*Reconciler, error) {
	if c.reconciler != nil {
		return c.reconciler, nil
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.AntiEntropyK <= 0 {
		cfg.AntiEntropyK = 1
	}
	r := &Reconciler{cloud: c, cfg: cfg, budget: repairBudget}
	c.reconciler = r
	if c.reg != nil {
		c.reg.GaugeFunc("declnet_reconcile_sweeps_total",
			"Reconciliation sweeps completed.", func() float64 { return float64(r.sweeps.Load()) })
		c.reg.GaugeFunc("declnet_reconcile_repairs_total",
			"Dataplane divergences repaired.", func() float64 { return float64(r.repairs.Load()) })
		c.reg.GaugeFunc("declnet_reconcile_drift_total",
			"Divergences found, by surface.", func() float64 { return float64(r.driftPermits.Load()) },
			metrics.L("surface", "permit"))
		c.reg.GaugeFunc("declnet_reconcile_drift_total",
			"Divergences found, by surface.", func() float64 { return float64(r.driftBinds.Load()) },
			metrics.L("surface", "bind"))
		c.reg.GaugeFunc("declnet_reconcile_drift_total",
			"Divergences found, by surface.", func() float64 { return float64(r.driftQuotas.Load()) },
			metrics.L("surface", "qos"))
		c.reg.GaugeFunc("declnet_reconcile_scanned_total",
			"Targets examined by sweeps, all surfaces.", func() float64 { return float64(r.scanned.Load()) })
		c.reg.GaugeFunc("declnet_reconcile_dirty_hits_total",
			"Checks of fault-monitor-marked targets that confirmed drift.", func() float64 { return float64(r.dirtyHits.Load()) })
		c.reg.GaugeFunc("declnet_reconcile_anti_entropy_scanned_total",
			"Targets examined by the anti-entropy rotation.", func() float64 { return float64(r.antiScanned.Load()) })
		c.reg.GaugeFunc("declnet_reconcile_queue_depth",
			"Divergences deferred to the next sweep.", func() float64 { return float64(r.queueDepth.Load()) })
		c.reg.GaugeFunc("declnet_reconcile_lag_seconds",
			"Wall-clock seconds since the last completed sweep.", func() float64 {
				last := r.lastSweepNs.Load()
				if last == 0 {
					return 0
				}
				return time.Since(time.Unix(0, last)).Seconds()
			})
	}
	return r, nil
}

// Reconciler returns the convergence loop, or nil before
// EnableReconciler.
func (c *Cloud) Reconciler() *Reconciler { return c.reconciler }

// sweepPlan is what one sweep visits, taken once before any provider
// runs and shared by all of them: the permit marks the sweep consumed
// from the fault monitor and the phase's slice of each declared surface.
// Both mix every provider's targets; each provider checks the ones it
// owns.
type sweepPlan struct {
	phase             int
	marks             map[addr.IP]bool
	permits, services []addr.IP
	quotas            []string
}

// RunSweep performs one deterministic sweep: it plans the sweep, then
// runs every provider in name order over the plan, permits then binds
// then quotas, the permit marks before the permit rotation slice. Marks
// are consumed before the view is taken: a deferred update that lands in
// between is read by this sweep and marked for the next — at worst one
// redundant check, never a lost one. Safe to call from any
// goroutine: sweeps run one at a time, repairs take the ordinary shard
// locks, and the unlocked screens read only leaf-locked state.
func (r *Reconciler) RunSweep() SweepResult {
	r.sweeping.Lock()
	defer r.sweeping.Unlock()
	start := time.Now()
	c := r.cloud
	k := r.cfg.AntiEntropyK
	plan := sweepPlan{phase: int(r.sweeps.Load() % uint64(k)), marks: c.monitor.takeMarks()}
	view := c.decl.View()
	plan.permits = view.PermitTargets(plan.phase, k)
	plan.services = view.ServiceTargets(plan.phase, k)
	plan.quotas = view.QuotaKeys(plan.phase, k)
	budget := r.budget
	var res SweepResult
	for _, p := range c.pidx.Load().list {
		r.sweepProvider(p, &plan, &budget, &res)
	}
	r.sweeps.Add(1)
	r.repairs.Add(uint64(res.Repaired))
	r.driftPermits.Add(uint64(res.DriftPermits))
	r.driftBinds.Add(uint64(res.DriftBinds))
	r.driftQuotas.Add(uint64(res.DriftQuotas))
	r.scanned.Add(uint64(res.Scanned))
	r.dirtyHits.Add(uint64(res.DirtyHits))
	r.antiScanned.Add(uint64(res.AntiEntropyScanned))
	r.queueDepth.Store(int64(res.Deferred))
	r.lastSweepNs.Store(start.UnixNano())
	r.lastSweepDur.Store(int64(time.Since(start)))
	return res
}

// checkDeclaredPermit screens one declared permit target against the
// enforcement engine, re-validates a mismatch under the owning tenant's
// shard lock against the live declared list, and repairs what is still
// wrong. Reports whether drift was found. Targets with a deferred
// (fault-pending) permit update are skipped — the fault monitor owns
// them until they land or time out.
func (r *Reconciler) checkDeclaredPermit(p *Provider, t addr.IP, pl intent.PermitList, budget *int, res *SweepResult) bool {
	c := r.cloud
	if _, pending := c.monitor.PendingPermit(t); pending {
		return false
	}
	// A converged target's declared and installed lists are one record,
	// so the steady-state comparison is a pointer compare — no clone, no
	// sort, no allocation.
	if equal, hasList := p.Permits.EqualsSet(t, pl.Set); hasList && equal {
		return false
	}
	defer p.lockShard(c.shardKeyOf(pl.Tenant, t))()
	// Skip a target that changed hands or was released since the screen:
	// this is no longer its shard, and the verb that moved it left it
	// converged.
	live, ok := c.decl.Permit(t)
	if !ok || live.Tenant != pl.Tenant || c.ownsTarget(pl.Tenant, t) != nil {
		return false
	}
	equal, hasList := p.Permits.EqualsSet(t, live.Set)
	if hasList && equal {
		return false
	}
	res.DriftPermits++
	cause := "drift:entries-mismatch"
	if !hasList {
		cause = "drift:missing-list"
	}
	if *budget <= 0 {
		res.Deferred++
		return true
	}
	// Respect fault-deferral semantics: an endpoint whose enforcement
	// point is unreachable cannot take the repair now.
	if n := c.targetNode(p, t); n != "" && !c.plane.Reachable(n) {
		res.Deferred++
		return true
	}
	*budget--
	p.Permits.Install(t, live.Set, uint64(len(live.Entries)))
	res.Repaired++
	c.traceEvent(pl.Tenant, obs.Decision{Kind: obs.Reconcile, Dst: t, Verdict: obs.Repaired,
		Detail: fmt.Sprintf("surface=permit entries=%d", len(live.Entries)),
		Cause:  obs.Chain("reconcile:permit:"+t.String(), cause)})
	return true
}

// checkUndeclaredPermit drops a list installed for a target the
// declared state no longer guards. The caller established both without
// a lock; they are re-validated under the shard lock of whoever holds
// the address.
func (r *Reconciler) checkUndeclaredPermit(p *Provider, t addr.IP, budget *int, res *SweepResult) bool {
	c := r.cloud
	if _, pending := c.monitor.PendingPermit(t); pending {
		return false
	}
	tenant := c.holder(t)
	defer p.lockShard(c.shardKeyOf(tenant, t))()
	if c.holder(t) != tenant {
		return false
	}
	if _, declared := c.decl.Permit(t); declared {
		return false
	}
	if _, installed := p.Permits.List(t); !installed {
		return false
	}
	res.DriftPermits++
	if *budget <= 0 {
		res.Deferred++
		return true
	}
	*budget--
	p.Permits.Drop(t)
	res.Repaired++
	c.traceEvent(tenant, obs.Decision{Kind: obs.Reconcile, Dst: t, Verdict: obs.Repaired,
		Detail: "surface=permit entries=0",
		Cause:  obs.Chain("reconcile:permit:"+t.String(), "drift:undeclared-list")})
	return true
}

// bindFix is one step converging a balancer on its declared bindings.
type bindFix struct {
	eip    addr.IP
	weight int // 0 = unbind
	cause  string
}

// bindFixes diffs a balancer's membership against declared bindings:
// missing backends to re-bind, weights to correct, undeclared backends
// to unbind. Health bits are runtime state owned by the fault monitor
// and are left alone.
func bindFixes(bal *lb.Balancer, want []intent.Bind) []bindFix {
	actual := bal.Weights()
	var fixes []bindFix
	seen := make(map[addr.IP]bool, len(want))
	for _, b := range want {
		seen[b.EIP] = true
		w := b.Weight
		if w < 1 {
			w = 1
		}
		cur, bound := actual[b.EIP]
		switch {
		case !bound:
			fixes = append(fixes, bindFix{b.EIP, w, "drift:missing-backend"})
		case cur != w:
			fixes = append(fixes, bindFix{b.EIP, w, "drift:weight-mismatch"})
		}
	}
	for _, eip := range sortedKeys(actual) {
		if !seen[eip] {
			fixes = append(fixes, bindFix{eip, 0, "drift:undeclared-backend"})
		}
	}
	return fixes
}

// checkBindService converges one declared service's balancer
// membership. Reports whether drift was found. A bind or unbind runs
// under the SIP's shard, but a release_eip drains its address out of the
// balancer under the EIP's region shard, so a candidate is re-validated
// holding the SIP's shard and the shard of every backend it suspects.
func (r *Reconciler) checkBindService(p *Provider, sip addr.IP, want *intent.Service, budget *int, res *SweepResult) bool {
	c := r.cloud
	svc, ok := p.services.Get(sip)
	if !ok {
		return false // released since the screen read it
	}
	suspects := bindFixes(svc.balancer, want.Binds)
	if len(suspects) == 0 {
		return false
	}
	keys := []ShardKey{p.regionShardKey(want.Tenant, "")}
	held := make(map[addr.IP]bool, len(suspects))
	for _, f := range suspects {
		keys = append(keys, c.shardKeyOf(want.Tenant, f.eip))
		held[f.eip] = true
	}
	defer c.shards.unlockShards(c.shards.lockShards(keys, nil))
	live, ok := c.decl.Service(sip)
	if cur, _ := p.services.Get(sip); !ok || live.Tenant != want.Tenant || cur != svc {
		return false // released or changed hands since the screen
	}
	found := false
	for _, f := range bindFixes(svc.balancer, live.Binds) {
		if !held[f.eip] {
			continue // not a suspect, so its shard is not held: next sweep
		}
		found = true
		res.DriftBinds++
		if *budget <= 0 {
			res.Deferred++
			continue
		}
		*budget--
		if f.weight > 0 {
			svc.balancer.Bind(f.eip, f.weight)
		} else {
			svc.balancer.Unbind(f.eip)
		}
		res.Repaired++
		c.traceEvent(want.Tenant, obs.Decision{Kind: obs.Reconcile, Src: f.eip, Dst: sip, Verdict: obs.Repaired,
			Detail: fmt.Sprintf("surface=bind weight=%d", f.weight),
			Cause:  obs.Chain("reconcile:bind:"+sip.String(), f.cause)})
	}
	return found
}

// checkQuota converges one declared (tenant, region) egress quota
// against the live limiter, re-validating a mismatch under the shard
// set_qos takes. Reports whether drift was found.
func (r *Reconciler) checkQuota(p *Provider, tenant, reg string, want float64, budget *int, res *SweepResult) bool {
	c := r.cloud
	if p.quotaBps(tenant, reg) == want {
		return false
	}
	defer p.lockShard(p.regionShardKey(tenant, reg))()
	want, ok := c.decl.Quota(intent.QuotaKey(p.Name, tenant, reg))
	if !ok || p.quotaBps(tenant, reg) == want {
		return false
	}
	res.DriftQuotas++
	if *budget <= 0 {
		res.Deferred++
		return true
	}
	*budget--
	if err := p.setQoS(tenant, reg, want); err != nil {
		res.Deferred++
		return true
	}
	res.Repaired++
	c.traceEvent(tenant, obs.Decision{Kind: obs.Reconcile, Verdict: obs.Repaired,
		Detail: fmt.Sprintf("surface=qos region=%s bps=%g", reg, want),
		Cause:  obs.Chain("reconcile:qos:"+p.Name+"/"+reg, "drift:quota-mismatch")})
	return true
}

// visit checks one surface's visit list for one provider: the marks in
// sorted order (nil on every surface but permits), then the rotation
// slices minus what a mark already covered, so a target is checked at
// most once a sweep. check reports whether the target was this
// provider's to examine and whether it found drift.
func visit[K cmp.Ordered](res *SweepResult, marks map[K]bool, check func(K) (mine, drift bool), rotation ...[]K) {
	for _, k := range sortedKeys(marks) {
		if mine, drift := check(k); mine {
			res.Scanned++
			if drift {
				res.DirtyHits++
			}
		}
	}
	for _, slice := range rotation {
		for _, k := range slice {
			if marks[k] {
				continue
			}
			if mine, _ := check(k); mine {
				res.Scanned++
				res.AntiEntropyScanned++
			}
		}
	}
}

// sweepProvider runs one provider's share of a planned sweep: per
// surface, the marked targets it owns plus the phase's rotation slice —
// its declared targets (drift on declared targets) and its permit engine
// stripes (installed-but-undeclared lists). Every declared target and
// every installed stripe is in exactly one phase, which is the K-sweep
// detection-lag bound for drift nothing marked.
func (r *Reconciler) sweepProvider(p *Provider, plan *sweepPlan, budget *int, res *SweepResult) {
	c := r.cloud
	undeclared := slices.DeleteFunc(p.Permits.TargetsOf(plan.phase, r.cfg.AntiEntropyK), func(t addr.IP) bool {
		_, declared := c.decl.Permit(t)
		return declared
	})
	visit(res, plan.marks, func(t addr.IP) (mine, drift bool) {
		if owner, ok := c.blockOwner(t); !ok || owner != p {
			return false, false
		}
		if pl, ok := c.decl.Permit(t); ok {
			return true, r.checkDeclaredPermit(p, t, pl, budget, res)
		}
		if _, installed := p.Permits.List(t); installed {
			return true, r.checkUndeclaredPermit(p, t, budget, res)
		}
		return true, false
	}, plan.permits, undeclared)
	visit(res, nil, func(sip addr.IP) (mine, drift bool) {
		want, ok := c.decl.Service(sip)
		if !ok || want.Provider != p.Name {
			return false, false
		}
		return true, r.checkBindService(p, sip, want, budget, res)
	}, plan.services)
	visit(res, nil, func(key string) (mine, drift bool) {
		want, ok := c.decl.Quota(key)
		prov, tenant, reg, parsed := intent.ParseQuotaKey(key)
		if !ok || !parsed || prov != p.Name {
			return false, false
		}
		return true, r.checkQuota(p, tenant, reg, want, budget, res)
	}, plan.quotas)
}

// Start launches the background sweep: one goroutine running a whole
// sweep every Interval. A forced RunSweep waits for a running one rather
// than running beside it. Idempotent.
func (r *Reconciler) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running {
		return
	}
	r.running = true
	r.stop = make(chan struct{})
	r.done.Add(1)
	go r.loop()
}

// loop is the background sweep: one RunSweep per tick.
func (r *Reconciler) loop() {
	defer r.done.Done()
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.RunSweep()
		}
	}
}

// Stop halts the background goroutine and waits for it to exit.
// Idempotent; RunSweep remains usable afterwards.
func (r *Reconciler) Stop() {
	r.mu.Lock()
	if !r.running {
		r.mu.Unlock()
		return
	}
	r.running = false
	close(r.stop)
	r.mu.Unlock()
	r.done.Wait()
}

// ReconcileStatus is the GET /v1/reconcile payload.
type ReconcileStatus struct {
	Enabled        bool    `json:"enabled"`
	Running        bool    `json:"running"`
	IntervalMillis float64 `json:"interval_ms"`
	RepairBudget   int     `json:"repair_budget"`
	// AntiEntropyK is K of the 1/K anti-entropy rotation (1 = every sweep
	// walks the whole world).
	AntiEntropyK int    `json:"anti_entropy_k"`
	Sweeps       uint64 `json:"sweeps"`
	Repairs      uint64 `json:"repairs"`
	DriftPermits uint64 `json:"drift_permits"`
	DriftBinds   uint64 `json:"drift_binds"`
	DriftQuotas  uint64 `json:"drift_quotas"`
	// Scanned / DirtyHits / AntiEntropyScanned expose sweep cost live:
	// how many targets sweeps examined, how many checks of
	// fault-monitor-marked targets found real drift, and how much of the
	// scanning was rotation coverage.
	Scanned            uint64 `json:"scanned"`
	DirtyHits          uint64 `json:"dirty_hits"`
	AntiEntropyScanned uint64 `json:"anti_entropy_scanned"`
	QueueDepth         int64  `json:"queue_depth"`
	// LagSeconds is wall-clock time since the last completed sweep
	// (0 before the first).
	LagSeconds        float64 `json:"lag_seconds"`
	LastSweepMillis   float64 `json:"last_sweep_ms"`
	LastSweepUnixNano int64   `json:"last_sweep_unix_ns,omitempty"`
}

// Status snapshots the loop's counters.
func (r *Reconciler) Status() ReconcileStatus {
	if r == nil {
		return ReconcileStatus{}
	}
	r.mu.Lock()
	running := r.running
	r.mu.Unlock()
	s := ReconcileStatus{
		Enabled:            true,
		Running:            running,
		IntervalMillis:     float64(r.cfg.Interval) / float64(time.Millisecond),
		RepairBudget:       r.budget,
		AntiEntropyK:       r.cfg.AntiEntropyK,
		Sweeps:             r.sweeps.Load(),
		Repairs:            r.repairs.Load(),
		DriftPermits:       r.driftPermits.Load(),
		DriftBinds:         r.driftBinds.Load(),
		DriftQuotas:        r.driftQuotas.Load(),
		Scanned:            r.scanned.Load(),
		DirtyHits:          r.dirtyHits.Load(),
		AntiEntropyScanned: r.antiScanned.Load(),
		QueueDepth:         r.queueDepth.Load(),
		LastSweepMillis:    float64(r.lastSweepDur.Load()) / float64(time.Millisecond),
		LastSweepUnixNano:  r.lastSweepNs.Load(),
	}
	if last := r.lastSweepNs.Load(); last != 0 {
		s.LagSeconds = time.Since(time.Unix(0, last)).Seconds()
	}
	return s
}
