// Desired-state reconciliation: the convergence loop that keeps the
// simulated dataplane (permit engines, SIP balancers, QoS limiters)
// equal to the declared intent in the durable store. Declared state is
// what the journal replays (internal/intent.State); the dataplane can
// drift from it through faults, lost updates, or the chaos hooks in
// intent.go. Each sweep takes the log's copy-on-write view, releases
// the log lock, and screens every target it visits against that view
// without taking a lock. The view is already old by then — mutations keep
// landing while the sweep walks — so a mismatch is only a candidate: the
// check then takes the target's shard lock, re-reads that one target's
// declared entry live from the log (shard lock -> log lock, the order
// every verb's Record uses), and only what still differs is drift, which
// it counts and repairs to the live value. A mutation applies and
// records under its shard lock, so under that lock the live entry and
// the dataplane can disagree only through real drift: a sweep never
// reverts an acknowledged mutation, and the drift counters never count
// one.
//
// Two sweep modes share the per-target check helpers. The legacy full
// sweep (AntiEntropyK == 0) walks every declared target every time.
// The incremental sweep (AntiEntropyK == K > 0) checks only targets the
// convergence tracker marked dirty since the last sweep, plus a
// rotating anti-entropy slice — 1/K of the declared world and 1/K of
// the installed permit stripes per sweep — so drift injected behind the
// recorder's back (the Drift* chaos hooks) is still found within K
// sweeps of injection: a bounded detection lag instead of a bounded
// per-sweep cost times the whole world.
package core

import (
	"fmt"
	"sort"
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
	// goroutines (default 1s).
	Interval time.Duration
	// RepairBudget caps repairs per sweep; divergence beyond it stays
	// queued for the next sweep (reported as queue depth). Default 256.
	RepairBudget int
	// AntiEntropyK selects the sweep mode. 0 (the default) is the full
	// scan: every declared target diffed every sweep. K > 0 is the
	// incremental sweep: dirty-marked targets plus a rotating 1/K
	// anti-entropy slice, bounding undirtied-drift detection lag to K
	// sweeps. The daemon runs K=8 by default (-anti-entropy-k).
	AntiEntropyK int
	// Gate, when set, brackets each background sweep: it acquires
	// whatever external serialization the embedder needs (the daemon
	// passes the API server's world read lock, which excludes engine
	// advancement) and returns the release. RunSweep itself never calls
	// it — synchronous callers own their serialization.
	Gate func() func()
}

// SweepResult summarizes one reconciliation sweep.
type SweepResult struct {
	DriftPermits int `json:"drift_permits"`
	DriftBinds   int `json:"drift_binds"`
	DriftQuotas  int `json:"drift_quotas"`
	Repaired     int `json:"repaired"`
	// Deferred counts divergences found but left for the next sweep
	// (repair budget exhausted or enforcement point unreachable).
	Deferred int `json:"deferred"`
	// Scanned counts targets examined this sweep, across every surface;
	// the full sweep scans the world, the incremental sweep scans
	// dirty + anti-entropy only — the ratio is the incremental win.
	Scanned int `json:"scanned"`
	// DirtyHits counts dirty-set checks that confirmed real drift.
	DirtyHits int `json:"dirty_hits"`
	// AntiEntropyScanned counts checks driven by the rotation rather
	// than a dirty mark (0 in full sweeps).
	AntiEntropyScanned int `json:"anti_entropy_scanned"`
}

// Reconciler owns the convergence loop over one Cloud. Create it with
// EnableReconciler; drive it synchronously with RunSweep (tests, the
// chaos soak) or in the background with Start (the daemon).
type Reconciler struct {
	cloud *Cloud
	cfg   ReconcilerConfig

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

	// aeIdx memoizes the anti-entropy bucket partition of one declared
	// view; valid while the log publishes the same view (same Seq), so
	// steady-state sweeps never re-bucket the world.
	aeMu  sync.Mutex
	aeIdx *aeIndex

	mu      sync.Mutex
	running bool
	stop    chan struct{}
	done    sync.WaitGroup
}

// EnableReconciler builds the convergence loop. Requires EnableIntent
// first — without a declared state there is nothing to converge to.
func (c *Cloud) EnableReconciler(cfg ReconcilerConfig) (*Reconciler, error) {
	if c.rec == nil {
		return nil, fmt.Errorf("core: EnableReconciler requires EnableIntent first")
	}
	if c.reconciler != nil {
		return c.reconciler, nil
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.RepairBudget <= 0 {
		cfg.RepairBudget = 256
	}
	r := &Reconciler{cloud: c, cfg: cfg}
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
			"Dirty-set checks that confirmed drift.", func() float64 { return float64(r.dirtyHits.Load()) })
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

// RunSweep performs one deterministic sweep. With AntiEntropyK == 0:
// every provider, every region (plus each provider's region-less SIP
// plane), permits then binds then quotas. With K > 0: the dirty sets
// accumulated since the last sweep plus this sweep's anti-entropy
// slice. Safe to call concurrently with API verbs — repairs take the
// ordinary shard locks — but callers that also advance the simulation
// engine must serialize that themselves (see ReconcilerConfig.Gate).
func (r *Reconciler) RunSweep() SweepResult {
	start := time.Now()
	budget := r.cfg.RepairBudget
	var res SweepResult
	if r.cfg.AntiEntropyK <= 0 {
		st := r.cloud.rec.View()
		for _, p := range r.cloud.pidx.Load().list {
			for _, region := range p.sweepScopes() {
				r.sweepScope(p, region, st, &budget, &res)
			}
		}
	} else {
		r.incrementalSweep(&budget, &res)
	}
	r.finishSweep(start, &res)
	return res
}

// finishSweep folds one sweep's result into the running counters.
func (r *Reconciler) finishSweep(start time.Time, res *SweepResult) {
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
}

// sweepScope reconciles one (provider, region) scope of the full sweep.
// region "" is the provider's SIP plane: service addresses, their
// bindings, and SIP permit lists.
func (r *Reconciler) sweepScope(p *Provider, region string, st *intent.State, budget *int, res *SweepResult) {
	r.sweepPermits(p, region, st, budget, res)
	if region == "" {
		r.sweepBinds(p, st, budget, res)
	}
	r.sweepQuotas(p, region, st, budget, res)
}

// entriesEqual compares two permit entry sets canonically (sorted by
// address then length). Safe on unsorted, deduplicated input; the hot
// path uses permit.Engine.EqualsEntries instead (no copies, no sort),
// and the parity property test uses this as its independent oracle.
func entriesEqual(a, b []addr.Prefix) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = sortedEntries(a), sortedEntries(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedEntries(in []addr.Prefix) []addr.Prefix {
	out := append([]addr.Prefix(nil), in...)
	// sort.Slice, not an insertion sort: this used to run per target per
	// sweep and went quadratic on large lists.
	sort.Slice(out, func(i, j int) bool {
		return out[i].Addr < out[j].Addr ||
			(out[i].Addr == out[j].Addr && out[i].Len < out[j].Len)
	})
	return out
}

// checkDeclaredPermit screens one declared permit target against the
// enforcement engine, re-validates a mismatch under the owning tenant's
// shard lock against the live declared list, and repairs what is still
// wrong. Reports whether drift was found. Targets with a deferred
// (fault-pending) permit update are skipped — the fault monitor owns
// them until they land or time out.
func (r *Reconciler) checkDeclaredPermit(p *Provider, t addr.IP, pl *intent.PermitList, budget *int, res *SweepResult) bool {
	c := r.cloud
	if c.monitor != nil {
		if _, pending := c.monitor.PendingPermit(t); pending {
			return false
		}
	}
	// Declared entries are kept canonically sorted and deduplicated at
	// apply time, so the steady-state comparison is a containment probe
	// against the installed set — no clone, no sort, no allocation.
	if equal, hasList := p.Permits.EqualsEntries(t, pl.Entries); hasList && equal {
		return false
	}
	defer p.lockShard(c.shardKeyOf(pl.Tenant, t))()
	// Skip a target that changed hands or was released since the view:
	// this is no longer its shard, and whatever moved it marked it dirty.
	live, ok := c.rec.Permit(t)
	if !ok || live.Tenant != pl.Tenant || p.ownsTarget(pl.Tenant, t) != nil {
		return false
	}
	equal, hasList := p.Permits.EqualsEntries(t, live.Entries)
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
	if c.monitor != nil {
		if ep, ok := p.addrs.getEndpoint(t); ok && !c.monitor.Inj.Reachable(ep.node) {
			res.Deferred++
			return true
		}
	}
	*budget--
	p.Permits.Set(t, live.Entries)
	c.convBumpTarget(p, t)
	res.Repaired++
	c.traceEvent(obs.Reconcile, pl.Tenant, 0, t, "repaired",
		fmt.Sprintf("surface=permit entries=%d", len(live.Entries)),
		obs.Chain("reconcile:permit:"+t.String(), cause))
	return true
}

// checkUndeclaredPermit drops a list installed for a target the
// declared state no longer guards. The caller established both against
// the view; they are re-validated under the shard lock of whoever holds
// the address.
func (r *Reconciler) checkUndeclaredPermit(p *Provider, t addr.IP, budget *int, res *SweepResult) bool {
	c := r.cloud
	if c.monitor != nil {
		if _, pending := c.monitor.PendingPermit(t); pending {
			return false
		}
	}
	tenant := p.holder(t)
	defer p.lockShard(c.shardKeyOf(tenant, t))()
	if p.holder(t) != tenant {
		return false
	}
	if _, declared := c.rec.Permit(t); declared {
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
	c.convBumpTarget(p, t)
	res.Repaired++
	c.traceEvent(obs.Reconcile, tenant, 0, t, "repaired",
		"surface=permit entries=0",
		obs.Chain("reconcile:permit:"+t.String(), "drift:undeclared-list"))
	return true
}

// sweepPermits is the full sweep over one region scope's permit
// surface: every declared target diffed, every undeclared installed
// list dropped.
func (r *Reconciler) sweepPermits(p *Provider, region string, st *intent.State, budget *int, res *SweepResult) {
	c := r.cloud
	// Declared targets owned by this provider and scope.
	declared := make([]addr.IP, 0, len(st.Permits))
	for t := range st.Permits {
		if owner, ok := c.blockOwner(t); ok && owner == p && p.regionOf(t) == region {
			declared = append(declared, t)
		}
	}
	sortIPs(declared)
	for _, t := range declared {
		res.Scanned++
		r.checkDeclaredPermit(p, t, st.Permits[t], budget, res)
	}
	// Undeclared lists still installed in the engine.
	for _, t := range p.Permits.Targets() {
		if p.regionOf(t) != region {
			continue
		}
		if _, ok := st.Permits[t]; ok {
			continue
		}
		res.Scanned++
		r.checkUndeclaredPermit(p, t, budget, res)
	}
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
	actual := make(map[addr.IP]int)
	for _, be := range bal.Backends() {
		actual[be.EIP] = be.Weight
	}
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
	for _, be := range sortedBackends(bal) {
		if !seen[be.EIP] {
			fixes = append(fixes, bindFix{be.EIP, 0, "drift:undeclared-backend"})
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
	svc, ok := p.addrs.getService(sip)
	if !ok {
		return false // released since the view was taken
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
	defer c.shards.lockShards(keys)()
	live, ok := c.rec.Service(sip)
	if cur, _ := p.addrs.getService(sip); !ok || live.Tenant != want.Tenant || cur != svc {
		return false // released or changed hands since the view
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
		c.conv.bump(sipScope(p.Name))
		res.Repaired++
		c.traceEvent(obs.Reconcile, want.Tenant, f.eip, sip, "repaired",
			fmt.Sprintf("surface=bind weight=%d", f.weight),
			obs.Chain("reconcile:bind:"+sip.String(), f.cause))
	}
	return found
}

// sweepBinds is the full sweep over one provider's bind surface.
func (r *Reconciler) sweepBinds(p *Provider, st *intent.State, budget *int, res *SweepResult) {
	declared := make([]addr.IP, 0, len(st.Services))
	for sip, svc := range st.Services {
		if svc.Provider == p.Name {
			declared = append(declared, sip)
		}
	}
	sortIPs(declared)
	for _, sip := range declared {
		res.Scanned++
		r.checkBindService(p, sip, st.Services[sip], budget, res)
	}
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
	want, ok := c.rec.Quota(intent.QuotaKey(p.Name, tenant, reg))
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
	c.conv.bump(polScope(p.Name))
	res.Repaired++
	c.traceEvent(obs.Reconcile, tenant, 0, 0, "repaired",
		fmt.Sprintf("surface=qos region=%s bps=%g", reg, want),
		obs.Chain("reconcile:qos:"+p.Name+"/"+reg, "drift:quota-mismatch"))
	return true
}

// sweepQuotas is the full sweep over one region scope's quota surface.
func (r *Reconciler) sweepQuotas(p *Provider, region string, st *intent.State, budget *int, res *SweepResult) {
	for _, key := range sortedKeys(st.Quotas) {
		prov, tenant, reg, ok := splitQuotaKey(key)
		if !ok || prov != p.Name || reg != region {
			continue
		}
		res.Scanned++
		r.checkQuota(p, tenant, reg, st.Quotas[key], budget, res)
	}
}

// aeIndex partitions one declared view into K anti-entropy buckets per
// surface. Built once per published view (the log's COW view pointer is
// the identity): in steady state — including drift storms, which never
// touch declared state — consecutive sweeps reuse it, so the 1/K slice
// really is 1/K work, not an O(world) rebucketing per sweep.
type aeIndex struct {
	st      *intent.State
	k       int
	permits [][]addr.IP
	binds   [][]addr.IP
	quotas  [][]string
}

func (r *Reconciler) indexFor(st *intent.State, k int) *aeIndex {
	r.aeMu.Lock()
	defer r.aeMu.Unlock()
	if r.aeIdx != nil && r.aeIdx.st == st && r.aeIdx.k == k {
		return r.aeIdx
	}
	idx := &aeIndex{
		st: st, k: k,
		permits: make([][]addr.IP, k),
		binds:   make([][]addr.IP, k),
		quotas:  make([][]string, k),
	}
	for t := range st.Permits {
		b := int(uint32(t) % uint32(k))
		idx.permits[b] = append(idx.permits[b], t)
	}
	for _, bkt := range idx.permits {
		sortIPs(bkt)
	}
	for s := range st.Services {
		b := int(uint32(s) % uint32(k))
		idx.binds[b] = append(idx.binds[b], s)
	}
	for _, bkt := range idx.binds {
		sortIPs(bkt)
	}
	for key := range st.Quotas {
		b := bucketString(key, k)
		idx.quotas[b] = append(idx.quotas[b], key)
	}
	for _, bkt := range idx.quotas {
		sortStrings(bkt)
	}
	r.aeIdx = idx
	return idx
}

// bucketString is FNV-1a mod k.
func bucketString(s string, k int) int {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return int(h % uint32(k))
}

// incrementalSweep is one dirty + anti-entropy sweep across every
// provider. Dirty sets are consumed before the view is taken: a
// mutation recorded in between is covered by this view and marked for
// the next sweep — at worst one redundant check, never a lost one.
func (r *Reconciler) incrementalSweep(budget *int, res *SweepResult) {
	c := r.cloud
	k := r.cfg.AntiEntropyK
	phase := int(r.sweeps.Load() % uint64(k))
	provs := c.pidx.Load().list
	dirt := make([]*convDirty, len(provs))
	for i, p := range provs {
		dirt[i] = c.conv.take(p.Name)
	}
	st := c.rec.View()
	idx := r.indexFor(st, k)
	for i, p := range provs {
		r.sweepDirty(p, dirt[i], st, budget, res)
		r.sweepAntiEntropy(p, st, idx, phase, budget, res)
	}
}

// sweepDirty checks every target the convergence tracker marked for
// this provider since the last sweep.
func (r *Reconciler) sweepDirty(p *Provider, d *convDirty, st *intent.State, budget *int, res *SweepResult) {
	if d == nil {
		return
	}
	targets := make([]addr.IP, 0, len(d.permits))
	for t := range d.permits {
		targets = append(targets, t)
	}
	sortIPs(targets)
	for _, t := range targets {
		res.Scanned++
		found := false
		if pl, ok := st.Permits[t]; ok {
			found = r.checkDeclaredPermit(p, t, pl, budget, res)
		} else if _, installed := p.Permits.List(t); installed {
			found = r.checkUndeclaredPermit(p, t, budget, res)
		}
		if found {
			res.DirtyHits++
		}
	}
	sips := make([]addr.IP, 0, len(d.binds))
	for s := range d.binds {
		sips = append(sips, s)
	}
	sortIPs(sips)
	for _, sip := range sips {
		want, ok := st.Services[sip]
		if !ok {
			continue // released: the live service went with it
		}
		res.Scanned++
		if r.checkBindService(p, sip, want, budget, res) {
			res.DirtyHits++
		}
	}
	keys := make([]string, 0, len(d.quotas))
	for k := range d.quotas {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, key := range keys {
		want, ok := st.Quotas[key]
		if !ok {
			continue
		}
		prov, tenant, reg, ok := splitQuotaKey(key)
		if !ok || prov != p.Name {
			continue
		}
		res.Scanned++
		if r.checkQuota(p, tenant, reg, want, budget, res) {
			res.DirtyHits++
		}
	}
}

// sweepAntiEntropy checks this sweep's 1/K rotation slice: the phase's
// declared buckets (drift on declared targets) and the phase's permit
// engine stripes (installed-but-undeclared lists). Every declared
// target and every installed stripe is visited once per K sweeps, which
// is the detection-lag bound for drift that never marked a dirty set.
func (r *Reconciler) sweepAntiEntropy(p *Provider, st *intent.State, idx *aeIndex, phase int, budget *int, res *SweepResult) {
	c := r.cloud
	for _, t := range idx.permits[phase] {
		if owner, ok := c.blockOwner(t); !ok || owner != p {
			continue
		}
		res.Scanned++
		res.AntiEntropyScanned++
		r.checkDeclaredPermit(p, t, st.Permits[t], budget, res)
	}
	for _, t := range p.Permits.TargetsOf(phase, idx.k) {
		if _, ok := st.Permits[t]; ok {
			continue
		}
		res.Scanned++
		res.AntiEntropyScanned++
		r.checkUndeclaredPermit(p, t, budget, res)
	}
	for _, sip := range idx.binds[phase] {
		want := st.Services[sip]
		if want.Provider != p.Name {
			continue
		}
		res.Scanned++
		res.AntiEntropyScanned++
		r.checkBindService(p, sip, want, budget, res)
	}
	for _, key := range idx.quotas[phase] {
		prov, tenant, reg, ok := splitQuotaKey(key)
		if !ok || prov != p.Name {
			continue
		}
		res.Scanned++
		res.AntiEntropyScanned++
		r.checkQuota(p, tenant, reg, st.Quotas[key], budget, res)
	}
}

// splitQuotaKey parses intent.QuotaKey's provider|tenant|region form.
func splitQuotaKey(key string) (prov, tenant, region string, ok bool) {
	i := indexByte(key, '|')
	if i < 0 {
		return "", "", "", false
	}
	j := indexByte(key[i+1:], '|')
	if j < 0 {
		return "", "", "", false
	}
	return key[:i], key[i+1 : i+1+j], key[i+1+j+1:], true
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// Start launches the background sweep. In full-scan mode (K == 0) it
// runs one goroutine per (provider, region) scope — plus each
// provider's SIP plane — each sweeping its own slice every Interval.
// In incremental mode the dirty sets are global consumables, so one
// goroutine runs whole incremental sweeps instead. Idempotent.
func (r *Reconciler) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running {
		return
	}
	r.running = true
	r.stop = make(chan struct{})
	if r.cfg.AntiEntropyK > 0 {
		r.done.Add(1)
		go r.loopIncremental()
		return
	}
	for _, p := range r.cloud.pidx.Load().list {
		for _, region := range p.sweepScopes() {
			p, region := p, region
			r.done.Add(1)
			go r.loop(p, region)
		}
	}
}

// loop is one scope's periodic full sweep.
func (r *Reconciler) loop(p *Provider, region string) {
	defer r.done.Done()
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case start := <-t.C:
			release := func() {}
			if r.cfg.Gate != nil {
				release = r.cfg.Gate()
			}
			st := r.cloud.rec.View()
			budget := r.cfg.RepairBudget
			var res SweepResult
			r.sweepScope(p, region, st, &budget, &res)
			release()
			r.finishSweep(start, &res)
		}
	}
}

// loopIncremental is the background incremental sweep.
func (r *Reconciler) loopIncremental() {
	defer r.done.Done()
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case start := <-t.C:
			release := func() {}
			if r.cfg.Gate != nil {
				release = r.cfg.Gate()
			}
			budget := r.cfg.RepairBudget
			var res SweepResult
			r.incrementalSweep(&budget, &res)
			release()
			r.finishSweep(start, &res)
		}
	}
}

// Stop halts the background goroutines and waits for them to exit.
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
	// AntiEntropyK is 0 for the full-scan sweep, K for the incremental
	// sweep with a 1/K anti-entropy rotation.
	AntiEntropyK int    `json:"anti_entropy_k"`
	Sweeps       uint64 `json:"sweeps"`
	Repairs      uint64 `json:"repairs"`
	DriftPermits uint64 `json:"drift_permits"`
	DriftBinds   uint64 `json:"drift_binds"`
	DriftQuotas  uint64 `json:"drift_quotas"`
	// Scanned / DirtyHits / AntiEntropyScanned expose sweep cost live:
	// how many targets sweeps examined, how many dirty-set checks found
	// real drift, and how much of the scanning was rotation coverage.
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
		RepairBudget:       r.cfg.RepairBudget,
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
