package core

import (
	"fmt"
	"sync"
	"time"

	"declnet/internal/addr"
	"declnet/internal/fault"
	"declnet/internal/metrics"
	"declnet/internal/obs"
	"declnet/internal/permit"
	"declnet/internal/sim"
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
	HealthInterval sim.Time
}

// The provider's fixed reactions, common cloud health-check settings:
// DownAfter consecutive missed probes pull a backend out of rotation (so
// failover latency ≈ HealthInterval × DownAfter); a recovered backend
// re-enters after RebindBackoff, doubled on every later failure of the
// same backend up to rebindBackoffMax, so a flapping host cannot churn
// the rotation. A permit update targeting an unreachable endpoint is
// accepted, retried every permitRetryInterval, and abandoned after
// permitRetryTimeout.
const (
	DownAfter           = 2
	RebindBackoff       = time.Second
	rebindBackoffMax    = 8 * RebindBackoff
	permitRetryInterval = time.Second
	permitRetryTimeout  = 30 * permitRetryInterval
)

// DefaultFaultPolicy probes every 500ms.
func DefaultFaultPolicy() FaultPolicy {
	return FaultPolicy{HealthInterval: 500 * time.Millisecond}
}

type backendKey struct {
	provider string
	sip      SIP
	eip      EIP
}

// backendState is the monitor's health record for one SIP binding.
type backendState struct {
	misses   int      // consecutive failed probes while in rotation
	down     bool     // pulled from rotation
	backoff  sim.Time // current re-bind backoff (doubles per failure)
	rebindAt sim.Time // when a recovered backend re-enters; 0 = not waiting
	downAt   sim.Time // when the failover was detected, for MTTR metrics
}

// FaultMonitor is the provider-side reaction to injected faults: a
// periodic health sweep that fails SIP bindings over to surviving
// backends, re-binds recovered ones with exponential backoff, and
// degrades QoS quotas when enforcement points partition away. Every
// cloud has one from construction, idle — nothing injected, every node
// reachable — until EnableFaults arms its health sweep.
type FaultMonitor struct {
	Inj    *fault.Injector
	Policy FaultPolicy

	cloud    *Cloud
	armed    bool
	backends map[backendKey]*backendState

	// Counters for experiment tables and tests. The health sweep writes
	// the first two from the engine; PermitRetries and PermitTimeouts are
	// guarded by mu.
	Failovers      uint64 // backends pulled from rotation
	Rebinds        uint64 // backends restored to rotation
	PermitRetries  uint64 // deferred permit-update attempts
	PermitTimeouts uint64 // permit updates abandoned
	LastFailoverAt sim.Time
	LastRebindAt   sim.Time

	// mu guards the deferred-permit state: set_permit_list calls in
	// different shards defer concurrently, beside Explain, the reconciler
	// and the metrics scrape reading it.
	mu sync.Mutex
	// pending tracks deferred permit updates by target address (when the
	// update was first accepted), so Explain can tell "denied" apart from
	// "accepted but not yet enforceable".
	pending map[addr.IP]sim.Time
	// mMTTR observes failover detect->rebind latency; mPermitLag observes
	// deferred-permit propagation lag. Both nil (no-op) without a registry.
	mMTTR      *metrics.Hist
	mPermitLag *metrics.Hist
}

// newFaultMonitor builds a cloud's idle monitor under the default
// policy.
func newFaultMonitor(c *Cloud) *FaultMonitor {
	return &FaultMonitor{
		Inj:      fault.NewInjector(c.Eng, c.G, c.Net),
		Policy:   DefaultFaultPolicy(),
		cloud:    c,
		backends: make(map[backendKey]*backendState),
		pending:  make(map[addr.IP]sim.Time),
	}
}

// EnableFaults arms the provider health monitor: the first call sets its
// policy (a zero HealthInterval takes the default) and starts the health
// sweep; later calls change nothing. It returns the cloud's one monitor.
// Call it at set-up or inside an exclusive step, like any engine write.
func (c *Cloud) EnableFaults(policy FaultPolicy) *FaultMonitor {
	m := c.monitor
	if !m.armed {
		m.armed = true
		if policy.HealthInterval > 0 {
			m.Policy = policy
		}
		// Daemon ticker: the health loop never keeps a deadline-less Run
		// alive on its own.
		c.Eng.EveryDaemon(m.Policy.HealthInterval, m.tick)
	}
	return m
}

// Faults returns the fault monitor (idle until EnableFaults).
func (c *Cloud) Faults() *FaultMonitor { return c.monitor }

// BackendDown reports whether the monitor currently holds a binding out
// of rotation (test hook).
func (m *FaultMonitor) BackendDown(provider string, sip SIP, eip EIP) bool {
	st, ok := m.backends[backendKey{provider, sip, eip}]
	return ok && st.down
}

// PendingPermit reports whether a permit update for target is accepted
// but still deferred (its enforcement point unreachable), and since when.
func (m *FaultMonitor) PendingPermit(target addr.IP) (sim.Time, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	since, ok := m.pending[target]
	return since, ok
}

// locked reads a deferred-permit figure under mu, for the gauges.
func (m *FaultMonitor) locked(f func() int) func() float64 {
	return func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(f())
	}
}

// registerMetrics exposes the monitor's reaction counters and latency
// distributions through the cloud's registry. The health sweep and fault
// injection write the engine-side counters inside an exclusive step.
func (m *FaultMonitor) registerMetrics(reg *metrics.Registry) {
	c := m.cloud
	reg.GaugeFunc("declnet_failovers_total",
		"Backends pulled from rotation.", c.engineRead(func() float64 { return float64(m.Failovers) }))
	reg.GaugeFunc("declnet_rebinds_total",
		"Backends restored to rotation.", c.engineRead(func() float64 { return float64(m.Rebinds) }))
	reg.GaugeFunc("declnet_permit_retries_total",
		"Deferred permit-update attempts.", m.locked(func() int { return int(m.PermitRetries) }))
	reg.GaugeFunc("declnet_permit_timeouts_total",
		"Permit updates abandoned.", m.locked(func() int { return int(m.PermitTimeouts) }))
	reg.GaugeFunc("declnet_permit_deferred",
		"Permit updates currently deferred.", m.locked(func() int { return len(m.pending) }))
	reg.GaugeFunc("declnet_faults_injected_total",
		"Injected link+node+region failures.", c.engineRead(func() float64 {
			return float64(m.Inj.LinkFailures + m.Inj.NodeFailures + m.Inj.RegionFailures)
		}))
	m.mMTTR = reg.Histogram("declnet_failover_mttr_seconds",
		"Failover detect-to-rebind latency.")
	m.mPermitLag = reg.Histogram("declnet_permit_propagation_seconds",
		"Deferred permit-update propagation lag.")
}

// tick is one health sweep over every provider, in deterministic order
// (the provider index's list is name-sorted).
func (m *FaultMonitor) tick() {
	now := m.cloud.Eng.Now()
	for _, p := range m.cloud.pidx.Load().list {
		m.sweepServices(now, p)
		m.sweepEnforcers(p)
	}
}

// sweepServices probes every SIP backend and drives rotation health.
func (m *FaultMonitor) sweepServices(now sim.Time, p *Provider) {
	svcs := p.services.All()
	for i := 1; i < len(svcs); i++ {
		for j := i; j > 0 && svcs[j].sip < svcs[j-1].sip; j-- {
			svcs[j], svcs[j-1] = svcs[j-1], svcs[j]
		}
	}
	for _, svc := range svcs {
		sip := svc.sip
		for _, be := range svc.balancer.Backends() {
			node, ok := p.Lookup(be.EIP)
			if !ok {
				continue
			}
			st := m.state(p.Name, sip, be.EIP)
			if m.Inj.Reachable(node) {
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
					svc.balancer.SetHealth(be.EIP, true)
					m.Rebinds++
					m.LastRebindAt = now
					if st.downAt > 0 {
						m.mMTTR.Record(now - st.downAt)
					}
					m.cloud.traceEvent(svc.tenant, obs.Decision{Kind: obs.Rebind, Src: be.EIP, Dst: sip, Verdict: obs.OK,
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
			svc.balancer.SetHealth(be.EIP, false)
			m.Failovers++
			m.LastFailoverAt = now
			st.downAt = now
			m.cloud.traceEvent(svc.tenant, obs.Decision{Kind: obs.Failover, Src: be.EIP, Dst: sip, Verdict: obs.Fail,
				Detail: fmt.Sprintf("node=%s misses=%d", node, st.misses),
				Cause:  obs.Chain(m.Inj.Cause(node)...)})
			if st.backoff == 0 {
				st.backoff = RebindBackoff
			} else if st.backoff *= 2; st.backoff > rebindBackoffMax {
				st.backoff = rebindBackoffMax
			}
		}
	}
}

// sweepEnforcers marks quota enforcers on unreachable nodes down so the
// distributed limiter re-shares the tenant's guarantee across surviving
// regions' enforcement points (graceful degradation under partition).
func (m *FaultMonitor) sweepEnforcers(p *Provider) {
	// Collect the quota records in deterministic order under polMu, then
	// drive each one under its own mutex (Connect attaches enforcers
	// concurrently).
	p.polMu.RLock()
	var tqs []*tenantQuota
	for _, tenant := range sortedKeys(p.quotas) {
		for _, region := range sortedKeys(p.quotas[tenant]) {
			tqs = append(tqs, p.quotas[tenant][region])
		}
	}
	p.polMu.RUnlock()
	for _, tq := range tqs {
		tq.mu.Lock()
		changed := false
		for _, n := range sortedKeys(tq.enforcer) {
			enf := tq.enforcer[n]
			up := m.Inj.Reachable(n)
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

func (m *FaultMonitor) state(provider string, sip SIP, eip EIP) *backendState {
	k := backendKey{provider, sip, eip}
	st, ok := m.backends[k]
	if !ok {
		st = &backendState{}
		m.backends[k] = st
	}
	return st
}

// retryPermit accepts a permit update whose target endpoint is currently
// unreachable and keeps retrying until the endpoint's enforcement point
// answers or the timeout expires. set is the list the verb derived (and
// the declared state adopted), installed as is when the node answers, at
// epoch n, the entries the tenant sent. Regular (non-daemon) events:
// bounded by the timeout, so a deadline-less Run still terminates.
//
// It runs on the verb path, under the target's shard lock only, so two
// tenants' deferrals race each other: mu covers the pending map and the
// counters, and the first attempt is queued under the cloud's engMu like
// every other event a shard-locked verb schedules. The attempts themselves
// run inside the engine, which never advances beside verbs: that takes an
// exclusive step.
func (m *FaultMonitor) retryPermit(p *Provider, tenant string, target addr.IP, set []permit.Entry, n int, node topo.NodeID) {
	accepted := m.cloud.Eng.Now()
	deadline := accepted + permitRetryTimeout
	m.mu.Lock()
	if _, dup := m.pending[target]; !dup {
		m.pending[target] = accepted
	}
	m.PermitRetries++
	m.mu.Unlock()
	m.cloud.traceEvent(tenant, obs.Decision{Kind: obs.PermitDefer, Dst: target, Verdict: obs.Deferred,
		Detail: fmt.Sprintf("entries=%d node=%s", n, node),
		Cause:  obs.Chain(m.Inj.Cause(node)...)})
	settle := func() {
		m.mu.Lock()
		delete(m.pending, target)
		m.mu.Unlock()
	}
	var attempt func()
	attempt = func() {
		// The target may have been released while the update was pending.
		ep, ok := p.endpoints.Get(target)
		if !ok || ep.tenant != tenant {
			settle()
			return
		}
		if m.Inj.Reachable(node) {
			epoch := p.Permits.Install(target, set, uint64(n))
			// The deferred update lands outside any journaled record: mark
			// the target dirty so the next sweep re-verifies it against the
			// latest declared list (which may have moved on while we
			// retried).
			m.cloud.conv.markPermit(target)
			if p.meter != nil {
				p.meter.PermitUpdate(tenant, m.cloud.Eng.Now())
			}
			lag := m.cloud.Eng.Now() - accepted
			m.mPermitLag.Record(lag)
			m.cloud.traceEvent(tenant, obs.Decision{Kind: obs.PermitApply, Dst: target, Verdict: obs.OK,
				Detail: fmt.Sprintf("lag=%v epoch=%d", lag, epoch)})
			settle()
			return
		}
		if m.cloud.Eng.Now()+permitRetryInterval > deadline {
			m.mu.Lock()
			m.PermitTimeouts++
			m.mu.Unlock()
			m.cloud.traceEvent(tenant, obs.Decision{Kind: obs.PermitTimeout, Dst: target, Verdict: obs.Fail,
				Detail: fmt.Sprintf("after=%v", m.cloud.Eng.Now()-accepted),
				Cause:  obs.Chain(append([]string{"permit-timeout:" + target.String()}, m.Inj.Cause(node)...)...)})
			settle()
			// Timed out: the live list never took the declared update. Mark
			// it dirty — with the pending flag gone, the reconciler owns
			// the repair and should find it promptly, not in K sweeps.
			m.cloud.conv.markPermit(target)
			return
		}
		m.mu.Lock()
		m.PermitRetries++
		m.mu.Unlock()
		m.cloud.Eng.After(permitRetryInterval, attempt)
	}
	m.cloud.engMu.Lock()
	m.cloud.Eng.After(permitRetryInterval, attempt)
	m.cloud.engMu.Unlock()
}
