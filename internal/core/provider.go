// Package core implements the paper's primary contribution: the
// declarative, endpoint-centric tenant networking API of Table 2 —
// request_eip, request_sip, bind, set_permit_list, set_qos — plus the
// extensions the paper sketches (per-EIP weights on bind, endpoint groups,
// hot/cold-potato profiles).
//
// The provider side realizes each verb with the substrate packages:
// flat EIPs are carved densely from per-region blocks (so the provider can
// aggregate routes internally, §4 Connectivity), default-off admission is
// enforced by package permit, SIP load balancing by package lb, regional
// egress guarantees by package qos, and actual traffic runs as flows in
// package netsim over the package topo world.
//
// Tenants never see a VPC, gateway, route table, or appliance — that is
// the point.
//
// Concurrency: control-plane state is sharded by (tenant, region) — see
// shard.go. Every mutation goes through Cloud.Apply (apply.go), which
// takes the verb's shard write lock, so verbs in different shards run
// concurrently; the read plane (Connect admission, Probe, Explain) takes
// shard read locks in deterministic order. Tenant (tenant.go) is the
// only Go facade for the verbs; the unexported bodies here assume the
// caller already holds the right lock.
package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/lb"
	"declnet/internal/netsim"
	"declnet/internal/obs"
	"declnet/internal/permit"
	"declnet/internal/qos"
	"declnet/internal/sim"
	"declnet/internal/topo"
)

// EIP is an endpoint IP: flat, globally routable, default-off.
type EIP = addr.IP

// SIP is a service IP: globally routable, load balanced to bound EIIPs.
type SIP = addr.IP

// endpoint is the provider's record for one granted EIP. All fields but
// egressCap are immutable after grant; egressCap is guarded by the
// endpoint's (tenant, region) shard lock.
type endpoint struct {
	eip       EIP
	tenant    string
	node      topo.NodeID // the VM/container the EIP fronts
	provider  string
	region    string
	shard     string  // "provider/region", precomputed so per-op SLO tagging never allocates
	egressCap float64 // per-VM egress guarantee/cap (bits/s), 0 = provider default
}

// service is the provider's record for one granted SIP.
type service struct {
	sip      SIP
	tenant   string
	balancer *lb.Balancer
}

// regionBlocks is how the provider carves address space: each region gets
// dense blocks so internal route aggregation works (the flexibility §4
// says flat addressing gives providers). Immutable after NewProvider.
type regionBlocks struct {
	pool  *addr.HostPool
	base  addr.Prefix
	shard string // "provider/region": the ShardKey.Region and SLO tag of everything in the block, built once
}

// Provider is one cloud's control plane implementing the Table-2 API.
// A multi-cloud world has one Provider per cloud sharing a topo.Graph and
// a netsim.Network (the public internet connects them).
type Provider struct {
	Name string

	eng *sim.Engine
	g   *topo.Graph
	net *netsim.Network

	// eipBlocks keys by region name; immutable after NewProvider (the
	// pools inside carry their own mutexes).
	eipBlocks map[string]*regionBlocks
	sipBlock  *addr.HostPool

	// endpoints and services are the granted EIPs and SIPs. Every tenant
	// shard homed on the provider shares them, so the shard locks above
	// cannot be their memory-safety story: two tenants mutating the same
	// region run under different shard locks. Instead each is an
	// addr.Table, striped by /16 block — the carving above — so one
	// region's churn never takes the stripe lock another region's reader
	// holds.
	endpoints addr.Table[*endpoint]
	services  addr.Table[*service]

	// Permits is the provider's enforcement engine, an addr.Table of its
	// own. Exposed for experiments that measure its scale directly.
	Permits *permit.Engine

	// polMu guards the per-tenant policy maps below (potato, quotas):
	// low-traffic state shared across the tenant's shards.
	polMu sync.RWMutex

	// potato holds each tenant's transit profile (default hot, §4 QoS).
	potato map[string]qos.PotatoPolicy

	// quotas holds per-(tenant,region) egress limiters.
	quotas map[string]map[string]*tenantQuota

	// cloud is the enclosing Cloud: its shard table, SLO plane, intent
	// store, fault monitor and decision tracer are the ones every verb
	// body uses.
	cloud *Cloud

	// meter, when set, records billable usage (see package meter).
	meter Biller

	cfg Config
}

// Biller is the subset of package meter's Meter the control plane
// records into; an interface so core does not import meter.
type Biller interface {
	GrantEIP(tenant string, now sim.Time)
	ReleaseEIP(tenant string, now sim.Time)
	GrantSIP(tenant string, now sim.Time)
	ReleaseSIP(tenant string, now sim.Time)
	SetQuota(tenant string, now sim.Time, totalBps float64)
	AddBytes(tenant string, now sim.Time, bytes float64, reserved bool)
	PermitUpdate(tenant string, now sim.Time)
}

// SetBiller attaches usage metering to this provider.
func (p *Provider) SetBiller(b Biller) { p.meter = b }

// stampPermitLag marks an accepted permit update for the SLO plane's
// live propagation-lag sampler; resolved at the next admission check
// of target. Called from the unlocked verb bodies so the batch
// path samples too.
func (p *Provider) stampPermitLag(tenant string, target addr.IP) {
	p.cloud.slo.StampPermit(tenant, target)
}

// tenantQuota is one (tenant, region) egress guarantee. mu guards the
// enforcer map and the limiter's attach/redistribute sequence, which the
// read plane drives concurrently from Connect.
type tenantQuota struct {
	mu       sync.Mutex
	limiter  *qos.DistributedLimiter
	enforcer map[topo.NodeID]*qos.Enforcer
	quota    float64
}

// Config parameterizes a provider.
type Config struct {
	// EIPBase is the provider's public block, carved per region.
	// Each region receives consecutive /16s from it.
	EIPBase addr.Prefix
	// SIPBase is the provider's service-address block.
	SIPBase addr.Prefix
}

// defaultVMEgress is the per-VM egress cap applied when the tenant sets
// none (bits/s): the standard guarantee adopted unchanged from today's
// clouds (§4 QoS). quotaPeriod is the distributed limiter's control
// period.
const (
	defaultVMEgress = 5 * topo.Gbps
	quotaPeriod     = 100 * time.Millisecond
)

// newProvider returns a control plane for the named cloud over the shared
// world (Cloud.AddProvider attaches it). Regions are discovered from the
// graph's host nodes.
func newProvider(name string, eng *sim.Engine, g *topo.Graph, net *netsim.Network, cfg Config) (*Provider, error) {
	if cfg.EIPBase.Len > 16 {
		return nil, fmt.Errorf("core: EIP base %s too small to carve /16 region blocks", cfg.EIPBase)
	}
	p := &Provider{
		Name:      name,
		eng:       eng,
		g:         g,
		net:       net,
		eipBlocks: make(map[string]*regionBlocks),
		sipBlock:  addr.NewHostPool(cfg.SIPBase, 1),
		Permits:   permit.NewEngine(),
		potato:    make(map[string]qos.PotatoPolicy),
		quotas:    make(map[string]map[string]*tenantQuota),
		cfg:       cfg,
	}
	// Carve one /16 per region, in sorted region order for determinism.
	regions := map[string]bool{}
	for _, n := range g.NodesWhere(func(n *topo.Node) bool { return n.Kind == topo.Host && n.Provider == name }) {
		regions[n.Region] = true
	}
	block := addr.NewBlockPool(cfg.EIPBase)
	for _, r := range sortedKeys(regions) {
		pfx, err := block.Allocate(16)
		if err != nil {
			return nil, fmt.Errorf("core: carving region %s: %w", r, err)
		}
		p.eipBlocks[r] = &regionBlocks{pool: addr.NewHostPool(pfx, 1), base: pfx, shard: name + "/" + r}
	}
	return p, nil
}

// RegionBlock exposes a region's EIP prefix (experiments use it to build
// the provider's aggregated routing view for E3).
func (p *Provider) RegionBlock(region string) (addr.Prefix, bool) {
	b, ok := p.eipBlocks[region]
	if !ok {
		return addr.Prefix{}, false
	}
	return b.base, true
}

// Regions returns the provider's region names, sorted.
func (p *Provider) Regions() []string {
	return sortedKeys(p.eipBlocks)
}

// regionShardKey is the tenant's shard for a region of this provider by
// name ("" = the provider-wide shard: SIP plane, potato).
func (p *Provider) regionShardKey(tenant, region string) ShardKey {
	if region == "" {
		return ShardKey{Tenant: tenant, Region: p.Name}
	}
	if b, ok := p.eipBlocks[region]; ok {
		return ShardKey{Tenant: tenant, Region: b.shard}
	}
	// No such region: the verb body rejects it under this lock.
	return ShardKey{Tenant: tenant, Region: p.Name + "/" + region}
}

// lockShard takes shard k's write lock (the reconciler's repairs).
func (p *Provider) lockShard(k ShardKey) func() { return p.cloud.shards.lockShard(k) }

// requestEIP is request_eip's body for the VM node n, which the endpoint
// records by n's own ID.
func (p *Provider) requestEIP(tenant string, n *topo.Node) (EIP, error) {
	vm := n.ID
	if n.Kind != topo.Host {
		return 0, fmt.Errorf("core: %q is not a compute endpoint", vm)
	}
	if n.Provider != p.Name {
		return 0, fmt.Errorf("core: VM %q belongs to provider %q, not %q", vm, n.Provider, p.Name)
	}
	blocks, ok := p.eipBlocks[n.Region]
	if !ok {
		return 0, fmt.Errorf("core: no address block for region %q", n.Region)
	}
	eip, err := blocks.pool.Allocate()
	if err != nil {
		return 0, err
	}
	p.endpoints.Put(eip, &endpoint{
		eip: eip, tenant: tenant, node: vm,
		provider: p.Name, region: n.Region,
		shard: blocks.shard,
	})
	p.cloud.tenantDelta(tenant, 1)
	if p.meter != nil {
		p.meter.GrantEIP(tenant, p.eng.Now())
	}
	return eip, nil
}

// releaseEIP is release_eip's body: the address leaves every balancer,
// its permit list, and the tenant's groups and names before its pool
// may hand it to someone else.
func (p *Provider) releaseEIP(tenant string, eip EIP) error {
	ep, err := p.owned(tenant, eip)
	if err != nil {
		return err
	}
	// Drain from any SIPs it is bound to; lb.ErrNotBound from the rest.
	for _, svc := range p.services.All() {
		_ = svc.balancer.Unbind(eip)
	}
	p.Permits.Drop(eip)
	p.endpoints.Delete(eip)
	p.cloud.forget(tenant, eip)
	p.cloud.tenantDelta(tenant, -1)
	if p.meter != nil {
		p.meter.ReleaseEIP(tenant, p.eng.Now())
	}
	return p.eipBlocks[ep.region].pool.Release(eip)
}

func (p *Provider) requestSIP(tenant string) (SIP, error) {
	sip, err := p.sipBlock.Allocate()
	if err != nil {
		return 0, err
	}
	p.services.Put(sip, &service{sip: sip, tenant: tenant, balancer: lb.New(sip)})
	p.cloud.tenantDelta(tenant, 1)
	if p.meter != nil {
		p.meter.GrantSIP(tenant, p.eng.Now())
	}
	return sip, nil
}

func (p *Provider) releaseSIP(tenant string, sip SIP) error {
	svc, ok := p.services.Get(sip)
	if !ok || svc.tenant != tenant {
		return fmt.Errorf("core: %s is not tenant %q's SIP", sip, tenant)
	}
	p.Permits.Drop(sip)
	p.services.Delete(sip)
	p.cloud.forget(tenant, sip)
	p.cloud.tenantDelta(tenant, -1)
	if p.meter != nil {
		p.meter.ReleaseSIP(tenant, p.eng.Now())
	}
	return p.sipBlock.Release(sip)
}

func (p *Provider) bind(tenant string, eip EIP, sip SIP, weight int) error {
	if _, err := p.owned(tenant, eip); err != nil {
		return err
	}
	svc, ok := p.services.Get(sip)
	if !ok || svc.tenant != tenant {
		return fmt.Errorf("core: %s is not tenant %q's SIP", sip, tenant)
	}
	svc.balancer.Bind(eip, weight)
	return nil
}

func (p *Provider) unbind(tenant string, eip EIP, sip SIP) error {
	svc, ok := p.services.Get(sip)
	if !ok || svc.tenant != tenant {
		return fmt.Errorf("core: %s is not tenant %q's SIP", sip, tenant)
	}
	if err := svc.balancer.Unbind(eip); err != nil {
		return fmt.Errorf("core: unbind %s from %s: %w", eip, sip, err)
	}
	return nil
}

// setPermitList is set_permit's body. It derives the target's new list
// once — the canonical set of op's entries and expanded group members —
// installs it, or hands it to the fault monitor when the target's
// enforcement point is unreachable, and leaves it on op for the declared
// state to adopt and the journal to record: op's entries become the list
// and its group names go. The groups run under the tenant's region-less
// shard, not the target's, so their create_group frames may land after
// this op's; a replayed op that named them would expand another
// membership, or none.
func (p *Provider) setPermitList(tenant string, op *intent.Op) error {
	target := op.Target
	if err := p.ownsTarget(tenant, target); err != nil {
		return err
	}
	all := slices.Clip(op.Entries) // appends below copy, never write into the op
	for _, gname := range op.Groups {
		members, ok := p.cloud.groupMembers(tenant, gname)
		if !ok {
			return fmt.Errorf("core: unknown group %q", gname)
		}
		for _, m := range members {
			all = append(all, addr.NewPrefix(m, 32))
		}
	}
	set := addr.CanonicalPrefixes(all)
	op.Entries, op.Groups = set, nil
	op.Derived, op.Prev, op.Next = true, nil, set
	// Under fault injection, an update targeting an endpoint whose
	// enforcement point is partitioned away cannot land immediately: it
	// is accepted and retried until the node answers or the policy's
	// timeout expires. SIP targets are enforced at the (always-on)
	// service frontend and never defer.
	if ep, ok := p.endpoints.Get(target); ok && !p.cloud.monitor.Inj.Reachable(ep.node) {
		p.cloud.monitor.retryPermit(p, tenant, target, set, len(all), ep.node)
		return nil
	}
	epoch := p.Permits.Install(target, set, uint64(len(all)))
	p.stampPermitLag(tenant, target)
	if p.meter != nil {
		p.meter.PermitUpdate(tenant, p.eng.Now())
	}
	p.cloud.traceEvent(tenant, obs.Decision{Kind: obs.PermitUpdate, Dst: target, Verdict: obs.OK,
		Entries: uint32(len(all)), Epoch: epoch})
	return nil
}

// permitEntries is the body of permit (add each of op's entries) and
// revoke (remove each). It derives the target's next list once, from the
// installed one, installs it, and leaves it on op for the declared state
// to adopt. The epoch advances once per entry permitted and once per entry
// actually removed; revoking from an unguarded target changes nothing.
func (p *Provider) permitEntries(tenant string, op *intent.Op) error {
	if err := p.ownsTarget(tenant, op.Target); err != nil {
		return err
	}
	if cur, guarded := p.Permits.List(op.Target); guarded || op.Verb == intent.OpPermit {
		prev := cur.Entries()
		next := op.Successor(prev)
		edits := len(op.Entries)
		if op.Verb == intent.OpRevoke {
			edits = len(prev) - len(next)
		}
		p.Permits.Install(op.Target, next, cur.Version()+uint64(edits))
		op.Derived, op.Prev, op.Next = true, prev, next
	}
	for range op.Entries {
		p.stampPermitLag(tenant, op.Target)
		if p.meter != nil {
			p.meter.PermitUpdate(tenant, p.eng.Now())
		}
	}
	return nil
}

func (p *Provider) setQoS(tenant, region string, bandwidth float64) error {
	if _, ok := p.eipBlocks[region]; !ok {
		return fmt.Errorf("core: unknown region %q", region)
	}
	tq := p.quota(tenant, region)
	tq.mu.Lock()
	tq.quota = bandwidth
	tq.limiter.SetQuota(bandwidth)
	tq.mu.Unlock()
	if p.meter != nil {
		var total float64
		p.polMu.RLock()
		for _, q := range p.quotas[tenant] {
			total += q.quota
		}
		p.polMu.RUnlock()
		p.meter.SetQuota(tenant, p.eng.Now(), total)
	}
	return nil
}

func (p *Provider) setPotato(tenant string, policy qos.PotatoPolicy) {
	p.polMu.Lock()
	p.potato[tenant] = policy
	p.polMu.Unlock()
}

// potatoOf returns the tenant's transit profile (default hot).
func (p *Provider) potatoOf(tenant string) qos.PotatoPolicy {
	p.polMu.RLock()
	policy, ok := p.potato[tenant]
	p.polMu.RUnlock()
	if !ok {
		return qos.HotPotato
	}
	return policy
}

// quotaBps reads the (tenant, region) egress quota in force (0 = none).
func (p *Provider) quotaBps(tenant, region string) float64 {
	tq, ok := p.quotaOf(tenant, region)
	if !ok {
		return 0
	}
	tq.mu.Lock()
	defer tq.mu.Unlock()
	return tq.quota
}

// quotaOf returns the (tenant, region) quota record if one exists.
func (p *Provider) quotaOf(tenant, region string) (*tenantQuota, bool) {
	p.polMu.RLock()
	tq, ok := p.quotas[tenant][region]
	p.polMu.RUnlock()
	return tq, ok
}

func (p *Provider) setVMEgressCap(tenant string, eip EIP, bps float64) error {
	ep, err := p.owned(tenant, eip)
	if err == nil {
		ep.egressCap = bps
	}
	return err
}

// MarkHealth is the provider health checker's signal for a bound backend.
// Structure-safe without shard locks: it only flips balancer health bits
// under the balancers' own mutexes.
func (p *Provider) MarkHealth(eip EIP, healthy bool) {
	for _, svc := range p.services.All() {
		_ = svc.balancer.SetHealth(eip, healthy) // lb.ErrNotBound where it is not a backend
	}
}

// Endpoint resolution helpers.

func (p *Provider) owned(tenant string, eip EIP) (*endpoint, error) {
	ep, ok := p.endpoints.Get(eip)
	if !ok || ep.tenant != tenant {
		return nil, fmt.Errorf("core: %s is not tenant %q's EIP", eip, tenant)
	}
	return ep, nil
}

func (p *Provider) ownsTarget(tenant string, target addr.IP) error {
	if ep, ok := p.endpoints.Get(target); ok && ep.tenant == tenant {
		return nil
	}
	if svc, ok := p.services.Get(target); ok && svc.tenant == tenant {
		return nil
	}
	return fmt.Errorf("core: %s is not tenant %q's address", target, tenant)
}

// holder names the tenant an address is granted to, as an EIP or a SIP
// ("" when it is not granted).
func (p *Provider) holder(ip addr.IP) string {
	if ep, ok := p.endpoints.Get(ip); ok {
		return ep.tenant
	}
	if svc, ok := p.services.Get(ip); ok {
		return svc.tenant
	}
	return ""
}

// Lookup returns the endpoint behind an EIP.
func (p *Provider) Lookup(eip EIP) (topo.NodeID, bool) {
	ep, ok := p.endpoints.Get(eip)
	if !ok {
		return "", false
	}
	return ep.node, true
}

// Service returns the balancer behind a SIP (read-only use in tests).
func (p *Provider) Service(sip SIP) (*lb.Balancer, bool) {
	svc, ok := p.services.Get(sip)
	if !ok {
		return nil, false
	}
	return svc.balancer, true
}

// EndpointCount returns granted EIPs; ServiceCount granted SIPs.
func (p *Provider) EndpointCount() int { return p.endpoints.Len() }
func (p *Provider) ServiceCount() int  { return p.services.Len() }

// quota lazily builds the (tenant, region) limiter.
func (p *Provider) quota(tenant, region string) *tenantQuota {
	p.polMu.Lock()
	defer p.polMu.Unlock()
	if p.quotas[tenant] == nil {
		p.quotas[tenant] = make(map[string]*tenantQuota)
	}
	tq, ok := p.quotas[tenant][region]
	if !ok {
		tq = &tenantQuota{enforcer: make(map[topo.NodeID]*qos.Enforcer)}
		// A new limiter arms a ticker on the cloud's one engine, whose
		// event queue is single-writer; first set_qos calls in different
		// shards (and providers) would otherwise race on it.
		p.cloud.engMu.Lock()
		tq.limiter = qos.NewDistributedLimiter(p.eng, 0, quotaPeriod)
		p.cloud.engMu.Unlock()
		p.quotas[tenant][region] = tq
	}
	return tq
}
