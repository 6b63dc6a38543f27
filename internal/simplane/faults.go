package simplane

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"declnet/internal/addr"
	"declnet/internal/core"
	"declnet/internal/intent"
	"declnet/internal/metrics"
	"declnet/internal/obs"
	"declnet/internal/topo"
)

// FaultPolicy parameterizes how the provider control plane reacts to
// infrastructure failures. All reactions are the provider's job: the
// tenant declared a SIP with bound backends and a QoS quota, and keeps
// exactly that through a failure — no API calls required.
type FaultPolicy struct {
	// HealthInterval is the health-check probe period for SIP backends
	// and quota enforcers (default 500ms). A backend leaves rotation
	// after DownAfter consecutive missed probes.
	HealthInterval time.Duration
}

// The provider's fixed reactions, common cloud health-check settings:
// DownAfter consecutive missed probes pull a backend out of rotation (so
// failover latency ≈ HealthInterval × DownAfter); a recovered backend
// re-enters after RebindBackoff, doubled on every later failure of the
// same backend up to RebindBackoffMax, so a flapping host cannot churn
// the rotation. A permit update targeting an unreachable endpoint is
// accepted, retried every PermitRetryInterval, and abandoned after
// PermitRetryTimeout.
const (
	DownAfter           = 2
	RebindBackoff       = time.Second
	RebindBackoffMax    = 8 * RebindBackoff
	PermitRetryInterval = time.Second
	PermitRetryTimeout  = 30 * PermitRetryInterval
)

type backendKey struct {
	provider string
	sip      core.SIP
	eip      core.EIP
}

// backendState is the monitor's health record for one SIP binding.
type backendState struct {
	misses   int           // consecutive failed probes while in rotation
	down     bool          // pulled from rotation
	backoff  time.Duration // current re-bind backoff (doubles per failure)
	rebindAt time.Duration // when a recovered backend re-enters; 0 = not waiting
	downAt   time.Duration // when the failover was detected, for MTTR metrics
}

// FaultMonitor is the provider-side reaction to faults in the simulated
// network, which it observes only through the injector's Reachable and
// Cause: a periodic health sweep that fails SIP bindings over to
// surviving backends, re-binds recovered ones with exponential backoff,
// and degrades QoS quotas when enforcement points partition away; and
// the deferral of permit updates whose enforcement point is unreachable
// (core.DataPlane's DeferPermit, PendingPermit and TakeMarks). Every
// plane has one from construction, its health sweep idle until
// EnableFaults arms it on the engine.
type FaultMonitor struct {
	Policy FaultPolicy

	p        *Plane
	armed    bool
	backends map[backendKey]*backendState

	// Counters for experiment tables and tests. The health sweep writes
	// the first two from the data plane; PermitRetries and PermitTimeouts are
	// guarded by mu.
	Failovers      uint64 // backends pulled from rotation
	Rebinds        uint64 // backends restored to rotation
	PermitRetries  uint64 // deferred permit-update attempts
	PermitTimeouts uint64 // permit updates abandoned
	LastRebindAt   time.Duration

	// mu guards the deferred-permit state: set_permit_list calls in
	// different shards defer concurrently, beside Explain, the reconciler
	// and the metrics scrape reading it.
	mu sync.Mutex
	// pending tracks deferred permit updates by target address, so
	// Explain can tell "denied" apart from "accepted but not yet
	// enforceable".
	pending map[addr.IP]*deferral
	// marks is the reconciler's one source of dirty marks: the targets
	// whose deferred update landed or timed out since the last sweep took
	// them. Only these change a reconciled surface outside a journaled
	// verb, and a verb leaves what it touched converged.
	marks map[addr.IP]bool
	// mMTTR observes failover detect->rebind latency; mPermitLag observes
	// deferred-permit propagation lag. Both nil (no-op) without a registry.
	mMTTR      *metrics.Hist
	mPermitLag *metrics.Hist
}

// newFaultMonitor builds a plane's idle monitor under the default
// policy.
func newFaultMonitor(p *Plane) *FaultMonitor {
	return &FaultMonitor{
		Policy:   FaultPolicy{HealthInterval: 500 * time.Millisecond},
		p:        p,
		backends: make(map[backendKey]*backendState),
		pending:  make(map[addr.IP]*deferral),
	}
}

// EnableFaults arms the provider health monitor: the first call sets its
// policy (a zero HealthInterval takes the default), starts the health
// sweep and registers the monitor's series with the cloud's registry, if
// it has one yet; later calls change nothing. It returns the plane's one
// monitor. Call it at set-up or from the simulation driver.
func (p *Plane) EnableFaults(policy FaultPolicy) *FaultMonitor {
	m := p.faults
	if !m.armed {
		m.armed = true
		if policy.HealthInterval > 0 {
			m.Policy = policy
		}
		p.every(m.Policy.HealthInterval, m.tick)
		m.registerMetrics(p.Cloud.Registry())
	}
	return m
}

// Faults returns the fault monitor (idle until EnableFaults).
func (p *Plane) Faults() *FaultMonitor { return p.faults }

// BackendDown reports whether the monitor currently holds a binding out
// of rotation (test hook).
func (m *FaultMonitor) BackendDown(provider string, sip core.SIP, eip core.EIP) bool {
	st, ok := m.backends[backendKey{provider, sip, eip}]
	return ok && st.down
}

// Backoff reads a binding's current re-bind backoff (test hook).
func (m *FaultMonitor) Backoff(provider string, sip core.SIP, eip core.EIP) time.Duration {
	return m.state(provider, sip, eip).backoff
}

// PendingPermit reports whether a permit update for target is accepted
// but still deferred by the fault monitor (its enforcement point
// unreachable), and since when.
func (p *Plane) PendingPermit(target addr.IP) (time.Duration, bool) {
	m := p.faults
	m.mu.Lock()
	defer m.mu.Unlock()
	if d, ok := m.pending[target]; ok {
		return d.since, true
	}
	return 0, false
}

// TakeMarks consumes the permit targets the fault monitor marked since
// the last call.
func (p *Plane) TakeMarks() map[addr.IP]bool {
	m := p.faults
	m.mu.Lock()
	defer m.mu.Unlock()
	marks := m.marks
	m.marks = nil
	return marks
}

// locked reads a deferred-permit figure under mu, for the gauges.
func (m *FaultMonitor) locked(f func() int) func() float64 {
	return func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(f())
	}
}

// registerMetrics exposes an armed monitor's reaction counters and
// latency distributions through the cloud's registry (nil: none); an idle
// one's could never move. The health sweep writes the failover and
// rebind counters from the simulation driver.
func (m *FaultMonitor) registerMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("declnet_failovers_total",
		"Backends pulled from rotation.", func() float64 { return float64(m.Failovers) })
	reg.GaugeFunc("declnet_rebinds_total",
		"Backends restored to rotation.", func() float64 { return float64(m.Rebinds) })
	reg.GaugeFunc("declnet_permit_retries_total",
		"Deferred permit-update attempts.", m.locked(func() int { return int(m.PermitRetries) }))
	reg.GaugeFunc("declnet_permit_timeouts_total",
		"Permit updates abandoned.", m.locked(func() int { return int(m.PermitTimeouts) }))
	reg.GaugeFunc("declnet_permit_deferred",
		"Permit updates currently deferred.", m.locked(func() int { return len(m.pending) }))
	m.mMTTR = reg.Histogram("declnet_failover_mttr_seconds",
		"Failover detect-to-rebind latency.")
	m.mPermitLag = reg.Histogram("declnet_permit_propagation_seconds",
		"Deferred permit-update propagation lag.")
}

// tick is one health sweep: every provider's services, in deterministic
// order (Cloud.Providers is name-sorted), then every installed quota's
// enforcement points.
func (m *FaultMonitor) tick() {
	now := m.p.Now()
	for _, p := range m.p.Cloud.Providers() {
		m.sweepServices(now, p)
	}
	m.sweepEnforcers()
}

// sweepServices probes every SIP backend and drives rotation health.
func (m *FaultMonitor) sweepServices(now time.Duration, p *core.Provider) {
	c := m.p.Cloud
	type service struct {
		sip    core.SIP
		holder string
	}
	var svcs []service // in address order
	c.Declared().Services().Ascend(0, func(sip addr.IP, svc *intent.Service) bool {
		if svc.Provider == p.Name {
			svcs = append(svcs, service{sip, svc.Tenant})
		}
		return true
	})
	for _, svc := range svcs {
		sip, holder := svc.sip, svc.holder
		bal, ok := p.Service(sip)
		if !ok {
			continue
		}
		for _, be := range bal.Backends() {
			node, ok := p.Lookup(be.EIP)
			if !ok {
				continue
			}
			st := m.state(p.Name, sip, be.EIP)
			if m.p.Reachable(node) {
				st.misses = 0
				if !st.down {
					continue
				}
				// Recovered: re-bind only after the backoff elapses, so a
				// flapping backend cannot churn in and out of rotation.
				if st.rebindAt == 0 {
					st.rebindAt = now + st.backoff
				}
				if now >= st.rebindAt {
					st.down = false
					st.rebindAt = 0
					bal.SetHealth(be.EIP, true)
					m.Rebinds++
					m.LastRebindAt = now
					if st.downAt > 0 {
						m.mMTTR.Record(now - st.downAt)
					}
					c.TraceEvent(holder, obs.Decision{Kind: obs.Rebind, Src: be.EIP, Dst: sip, Verdict: obs.OK,
						Detail: fmt.Sprintf("node=%s mttr=%v", node, now-st.downAt)})
					st.downAt = 0
				}
				continue
			}
			st.rebindAt = 0
			if st.down {
				continue
			}
			st.misses++
			if st.misses < DownAfter {
				continue
			}
			// Pull the binding; the balancer serves from survivors only.
			st.down = true
			bal.SetHealth(be.EIP, false)
			m.Failovers++
			st.downAt = now
			c.TraceEvent(holder, obs.Decision{Kind: obs.Failover, Src: be.EIP, Dst: sip, Verdict: obs.Fail,
				Detail: fmt.Sprintf("node=%s misses=%d", node, st.misses),
				Cause:  obs.Chain(m.p.Cause(node)...)})
			if st.backoff == 0 {
				st.backoff = RebindBackoff
			} else if st.backoff *= 2; st.backoff > RebindBackoffMax {
				st.backoff = RebindBackoffMax
			}
		}
	}
}

// sweepEnforcers marks quota enforcers on unreachable nodes down so the
// distributed limiter re-shares the tenant's guarantee across surviving
// regions' enforcement points (graceful degradation under partition).
// Each quota record is driven under its own mutex (Connect attaches
// enforcers concurrently).
func (m *FaultMonitor) sweepEnforcers() {
	for _, tq := range m.p.sortedQuotas() {
		tq.mu.Lock()
		nodes := make([]topo.NodeID, 0, len(tq.enforcer))
		for n := range tq.enforcer {
			nodes = append(nodes, n)
		}
		slices.Sort(nodes)
		changed := false
		for _, n := range nodes {
			enf := tq.enforcer[n]
			up := m.p.Reachable(n)
			if enf.Up() != up {
				enf.SetUp(up)
				changed = true
			}
		}
		if changed {
			tq.limiter.Redistribute()
		}
		tq.mu.Unlock()
	}
}

func (m *FaultMonitor) state(provider string, sip core.SIP, eip core.EIP) *backendState {
	k := backendKey{provider, sip, eip}
	st, ok := m.backends[k]
	if !ok {
		st = &backendState{}
		m.backends[k] = st
	}
	return st
}

// deferral is one target's deferred permit update: when the first one
// was accepted, and the list version of the latest.
type deferral struct {
	since   time.Duration
	version uint64
}

// DeferPermit has the fault monitor accept a permit update whose target
// endpoint is currently unreachable and keep retrying until the
// endpoint's enforcement point answers or the timeout, counted from the first deferral, expires. The
// verb has declared the update on the endpoint's record already; the
// attempt that reaches the node installs the list the record holds then.
// Its version counts as if each deferred update had landed: a set_permit
// (set) restarts it at edits, its entry count, and a permit or revoke adds
// its edits to the pending deferral's version, or to the installed list's.
// A target has one retry loop: a deferral while one is pending only moves
// its version, so the list that lands is the one declared last. Regular
// (non-daemon) events: bounded by the timeout, so a deadline-less Run
// still terminates.
//
// It runs on the verb path, under the target's shard lock only, so two
// tenants' deferrals race each other: mu covers the pending map and the
// counters, and the data plane serializes the queueing of the first
// attempt with what other verbs schedule. The attempts themselves run in
// the data plane, which never advances beside verbs.
func (p *Plane) DeferPermit(prov *core.Provider, tenant string, target addr.IP, edits int, set bool, node topo.NodeID) {
	m, c := p.faults, p.Cloud
	m.mu.Lock()
	d, running := m.pending[target]
	if !running {
		cur, _ := prov.Permits.List(target)
		d = &deferral{since: p.Now(), version: cur.Version()}
		m.pending[target] = d
	}
	if set {
		d.version = 0
	}
	d.version += uint64(edits)
	m.PermitRetries++
	m.mu.Unlock()
	c.TraceEvent(tenant, obs.Decision{Kind: obs.PermitDefer, Dst: target, Verdict: obs.Deferred,
		Detail: fmt.Sprintf("entries=%d node=%s", edits, node),
		Cause:  obs.Chain(p.Cause(node)...)})
	if running {
		return
	}
	accepted := d.since
	deadline := accepted + PermitRetryTimeout
	// settle ends the deferral. A landed or timed-out update marks the
	// target in the same step, so a sweep sees the target either still
	// pending or marked, never neither.
	settle := func(mark bool) {
		m.mu.Lock()
		delete(m.pending, target)
		if mark {
			if m.marks == nil {
				m.marks = make(map[addr.IP]bool)
			}
			m.marks[target] = true
		}
		m.mu.Unlock()
	}
	var attempt func()
	attempt = func() {
		// The target may have been released, or granted again, while the
		// update was pending: what lands is what its record declares now.
		ep, ok := c.Declared().Endpoint(target)
		if !ok || ep.Permits == nil {
			settle(false)
			return
		}
		node := topo.NodeID(ep.VM)
		if p.Reachable(node) {
			m.mu.Lock()
			version := d.version
			m.mu.Unlock()
			epoch := prov.Permits.Install(target, ep.Permits, version)
			if p.meter != nil {
				p.meter.PermitUpdate(ep.Tenant, p.Now())
			}
			lag := p.Now() - accepted
			m.mPermitLag.Record(lag)
			c.TraceEvent(ep.Tenant, obs.Decision{Kind: obs.PermitApply, Dst: target, Verdict: obs.OK,
				Detail: fmt.Sprintf("lag=%v epoch=%d", lag, epoch)})
			// The update landed outside any journaled record: the next
			// sweep re-verifies it against the declared list.
			settle(true)
			return
		}
		if p.Now()+PermitRetryInterval > deadline {
			m.mu.Lock()
			m.PermitTimeouts++
			m.mu.Unlock()
			c.TraceEvent(ep.Tenant, obs.Decision{Kind: obs.PermitTimeout, Dst: target, Verdict: obs.Fail,
				Detail: fmt.Sprintf("after=%v", p.Now()-accepted),
				Cause:  obs.Chain(append([]string{"permit-timeout:" + target.String()}, p.Cause(node)...)...)})
			// Timed out: the live list never took the declared update. With
			// the pending flag gone the reconciler owns the repair, and the
			// mark has it found promptly, not in K sweeps.
			settle(true)
			return
		}
		m.mu.Lock()
		m.PermitRetries++
		m.mu.Unlock()
		p.after(PermitRetryInterval, attempt)
	}
	p.after(PermitRetryInterval, attempt)
}
