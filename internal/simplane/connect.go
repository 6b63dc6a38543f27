package simplane

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"declnet/internal/addr"
	"declnet/internal/core"
	"declnet/internal/intent"
	"declnet/internal/obs"
	"declnet/internal/slo"
	"declnet/internal/topo"
)

// quotaPeriod is the distributed limiter's control period.
const quotaPeriod = 100 * time.Millisecond

// Tenant is one tenant's handle on the simulated cloud: core's verbs, and
// connections that carry traffic.
type Tenant struct {
	*core.Tenant
	p *Plane
}

// Tenant returns the handle for one tenant account.
func (p *Plane) Tenant(name string) *Tenant { return &Tenant{Tenant: p.Cloud.Tenant(name), p: p} }

// Conn is one admitted connection: a live flow plus the load-balancer and
// quota bookkeeping needed to tear it down cleanly.
type Conn struct {
	Flow   Flow
	Path   topo.Path
	SrcEIP core.EIP
	DstEIP core.EIP

	plane    *Plane
	adapter  *flowAdapter
	enforcer *Enforcer
	release  func()
	closed   bool

	tenant string
	class  QoSClass
	billed bool
}

// Close ends the connection, releasing its backend slot and quota share.
func (cn *Conn) Close() {
	if cn.closed {
		return
	}
	cn.closed = true
	if cn.Flow != nil && !cn.Flow.Done() {
		cn.Flow.Stop()
	}
	if cn.enforcer != nil && cn.adapter != nil {
		cn.enforcer.Detach(cn.adapter)
	}
	if cn.release != nil {
		cn.release()
	}
	cn.bill()
}

// bill records transferred bytes once, at completion or close.
func (cn *Conn) bill() {
	if cn.billed || cn.plane.meter == nil || cn.Flow == nil {
		return
	}
	cn.billed = true
	cn.plane.meter.AddBytes(cn.tenant, cn.plane.Now(), cn.Flow.SentBytes(), cn.class == Reserved)
}

// flowAdapter lets the distributed limiter shape a data-plane flow.
type flowAdapter struct {
	flow   Flow
	demand float64
	vmCap  float64
}

// SetCap implements RateSetter, respecting the per-VM egress cap.
func (a *flowAdapter) SetCap(bps float64) {
	if a.vmCap > 0 && (bps == 0 || bps > a.vmCap) {
		bps = a.vmCap
	}
	a.flow.SetMaxRate(bps)
}

// Demand implements RateSetter.
func (a *flowAdapter) Demand() float64 { return a.demand }

// QoSClass marks which traffic consumes the tenant's reserved regional
// egress bandwidth — the extension the paper's §4 footnote leaves to
// future work ("Extensions might allow the tenant to indicate what
// portions of their traffic should consume this reserved bandwidth").
type QoSClass int

const (
	// Reserved traffic draws on the set_qos regional guarantee (default).
	Reserved QoSClass = iota
	// BestEffort traffic never consumes the reservation; it takes
	// whatever fair share the network gives it under the per-VM cap.
	BestEffort
)

func (c QoSClass) String() string {
	if c == BestEffort {
		return "best-effort"
	}
	return "reserved"
}

// ConnectOpts tunes a connection.
type ConnectOpts struct {
	// SizeBytes < 0 starts a persistent flow.
	SizeBytes float64
	// Demand is the offered load in bits/s for quota accounting;
	// 0 defaults to the path bottleneck.
	Demand float64
	// Class selects whether the flow consumes the regional reservation.
	Class QoSClass
	// OnDone fires for sized flows with the completion time.
	OnDone func(fct time.Duration)
}

// Connect opens a connection from one of the tenant's EIPs to a
// destination EIP or SIP, running the paper's data path: core's
// control-plane half (core.Tenant.Connect: admission, the SIP's backend
// pick, the path), then (4) the flow under the per-VM cap, attached to
// the regional egress limiter when it leaves the source region. The flow
// start and its cap changes go through the plane's lock; the flow then
// moves only when the simulation driver advances the engine.
func (t *Tenant) Connect(src core.EIP, dst addr.IP, opts ConnectOpts) (*Conn, error) {
	p := t.p
	var cn *Conn
	err := t.Tenant.Connect(src, dst, func(op *slo.Op, r *core.Route) error {
		// Cross-region/cloud reserved egress is subject to the tenant's
		// regional quota when one is set; best-effort traffic bypasses the
		// reservation entirely (§4 footnote extension).
		srcEp, dstEp := r.Src, r.Dst
		var tq *tenantQuota
		if opts.Class == Reserved && (dstEp.Provider != srcEp.Provider || dstEp.Region != srcEp.Region) {
			tq = p.quota(quotaKey{srcEp.Provider, t.Name(), srcEp.Region})
		}
		demand := opts.Demand
		if demand == 0 {
			demand = r.Path.Bottleneck()
		}
		if demand > r.VMCap {
			demand = r.VMCap
		}
		c := &Conn{
			Path: r.Path, SrcEIP: r.SrcEIP, DstEIP: r.DstEIP,
			plane: p, release: r.Release,
			tenant: t.Name(), class: opts.Class,
		}
		flow, err := p.startFlow(r.Path, opts.SizeBytes, r.VMCap, func(fct time.Duration) {
			c.bill()
			if opts.OnDone != nil {
				opts.OnDone(fct)
			}
		})
		if err != nil {
			return err
		}
		c.Flow = flow
		stg := op.StageStart()
		if tq != nil {
			tq.mu.Lock()
			quota := tq.quota
			if quota > 0 {
				ad := &flowAdapter{flow: flow, demand: demand, vmCap: r.VMCap}
				enf, found := tq.enforcer[topo.NodeID(srcEp.VM)]
				if !found {
					enf = NewEnforcer(srcEp.VM)
					tq.enforcer[topo.NodeID(srcEp.VM)] = enf
					tq.limiter.AddEnforcer(enf)
				}
				enf.Attach(ad)
				tq.limiter.Redistribute()
				c.adapter = ad
				c.enforcer = enf
			}
			tq.mu.Unlock()
			if quota > 0 {
				p.Cloud.TraceEvent(t.Name(), obs.Decision{Kind: obs.QoSThrottle, Src: r.SrcEIP, Dst: r.DstEIP, Verdict: obs.OK,
					Detail: fmt.Sprintf("region=%s quota=%.3gbps demand=%.3gbps", srcEp.Region, quota, demand)})
			}
		}
		op.StageEnd(stg, "qos")
		cn = c
		return nil
	})
	return cn, err
}

// ConnectName is Connect with the destination given by name.
func (t *Tenant) ConnectName(src core.EIP, name string, opts ConnectOpts) (*Conn, error) {
	dst, ok := t.Resolve(name)
	if !ok {
		return nil, fmt.Errorf("core: tenant %q has no name %q", t.Name(), name)
	}
	return t.Connect(src, dst, opts)
}

// Transfer moves sizeBytes from src to dst; done receives the completion
// time once the simulation is advanced.
func (t *Tenant) Transfer(src core.EIP, dst addr.IP, sizeBytes float64, done func(time.Duration)) (*Conn, error) {
	return t.Connect(src, dst, ConnectOpts{SizeBytes: sizeBytes, OnDone: done})
}

// quotaKey names one (provider, tenant, region) egress guarantee.
type quotaKey struct{ provider, tenant, region string }

// tenantQuota is one (tenant, region) egress guarantee. mu guards the
// enforcer map and the limiter's attach/redistribute sequence, which
// concurrent connects drive.
type tenantQuota struct {
	mu       sync.Mutex
	limiter  *DistributedLimiter
	enforcer map[topo.NodeID]*Enforcer
	quota    float64
}

// quota reads an installed limiter, nil when none is.
func (p *Plane) quota(k quotaKey) *tenantQuota {
	p.qmu.RLock()
	defer p.qmu.RUnlock()
	return p.quotas[k]
}

// sortedQuotas returns the installed limiters in (provider, tenant,
// region) order, for the deterministic health sweep.
func (p *Plane) sortedQuotas() []*tenantQuota {
	p.qmu.RLock()
	defer p.qmu.RUnlock()
	keys := make([]quotaKey, 0, len(p.quotas))
	for k := range p.quotas {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b quotaKey) int {
		return cmp.Or(strings.Compare(a.provider, b.provider), strings.Compare(a.tenant, b.tenant), strings.Compare(a.region, b.region))
	})
	out := make([]*tenantQuota, len(keys))
	for i, k := range keys {
		out[i] = p.quotas[k]
	}
	return out
}

// setQuota installs a (tenant, region) egress quota, lazily building its
// limiter, whose control round the engine runs every quotaPeriod, and
// meters the tenant's total at the provider.
func (p *Plane) setQuota(k quotaKey, bps float64) {
	p.qmu.Lock()
	tq, ok := p.quotas[k]
	if !ok {
		tq = &tenantQuota{
			enforcer: make(map[topo.NodeID]*Enforcer),
			limiter:  NewDistributedLimiter(0, quotaPeriod),
		}
		p.every(quotaPeriod, tq.limiter.Redistribute)
		p.quotas[k] = tq
	}
	p.qmu.Unlock()
	tq.mu.Lock()
	tq.quota = bps
	tq.limiter.SetQuota(bps)
	tq.mu.Unlock()
	if p.meter == nil {
		return
	}
	var total float64
	p.qmu.RLock()
	for qk, q := range p.quotas {
		if qk.provider == k.provider && qk.tenant == k.tenant {
			total += q.quota
		}
	}
	p.qmu.RUnlock()
	p.meter.SetQuota(k.tenant, p.Now(), total)
}

// Quota reads an installed (provider, tenant, region) quota and its
// enforcement points up of all; one never set reads 0.
func (p *Plane) Quota(provider, tenant, region string) (bps float64, up, total int, ok bool) {
	tq := p.quota(quotaKey{provider, tenant, region})
	if tq == nil {
		return 0, 0, 0, true
	}
	tq.mu.Lock()
	defer tq.mu.Unlock()
	for _, enf := range tq.enforcer {
		if enf.Up() {
			up++
		}
	}
	return tq.quota, up, len(tq.enforcer), true
}

// DriftZeroQuota zeroes an installed (tenant, region) egress limiter
// without touching the declared quota: a chaos hook for the reconciler
// to find and repair, like core's Drift* hooks.
func (p *Plane) DriftZeroQuota(provider, tenant, region string) bool {
	tq := p.quota(quotaKey{provider, tenant, region})
	if tq == nil {
		return false
	}
	tq.mu.Lock()
	tq.quota = 0
	tq.limiter.SetQuota(0)
	tq.mu.Unlock()
	return true
}

// Biller is the subset of package meter's Meter the plane records
// into; an interface so the plane does not import meter.
type Biller interface {
	GrantEIP(tenant string, now time.Duration)
	ReleaseEIP(tenant string, now time.Duration)
	GrantSIP(tenant string, now time.Duration)
	ReleaseSIP(tenant string, now time.Duration)
	SetQuota(tenant string, now time.Duration, totalBps float64)
	AddBytes(tenant string, now time.Duration, bytes float64, reserved bool)
	PermitUpdate(tenant string, now time.Duration)
}

// SetBiller attaches usage metering: grants and releases, quotas, permit
// updates as they land, and the bytes connections carry. Call it before
// the cloud is shared.
func (p *Plane) SetBiller(b Biller) { p.meter = b }

// Apply learns a folded op: a set_qos installs its quota, and every op
// is metered.
func (p *Plane) Apply(tenant string, op *intent.Op) {
	if op.Verb == intent.OpSetQoS {
		p.setQuota(quotaKey{op.Provider, tenant, op.Region}, op.Bps)
		return
	}
	b := p.meter
	if b == nil {
		return
	}
	now := p.Now()
	switch op.Verb {
	case intent.OpRequestEIP:
		b.GrantEIP(tenant, now)
	case intent.OpReleaseEIP:
		b.ReleaseEIP(tenant, now)
	case intent.OpRequestSIP:
		b.GrantSIP(tenant, now)
	case intent.OpReleaseSIP:
		b.ReleaseSIP(tenant, now)
	case intent.OpSetPermit, intent.OpPermit, intent.OpRevoke:
		// A deferred update is metered when it lands (DeferPermit).
		if ep, ok := p.Cloud.Declared().Endpoint(op.Target); ok && !p.Reachable(topo.NodeID(ep.VM)) {
			return
		}
		n := len(op.Entries)
		if op.Verb == intent.OpSetPermit {
			n = 1
		}
		for range n {
			b.PermitUpdate(tenant, now)
		}
	}
}
