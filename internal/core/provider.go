// Package core implements the paper's primary contribution: the
// declarative, endpoint-centric tenant networking API of Table 2 —
// request_eip, request_sip, bind, set_permit_list, set_qos — plus the
// extensions the paper sketches (per-EIP weights on bind, endpoint groups,
// hot/cold-potato profiles).
//
// The provider side realizes each verb with the substrate packages:
// flat EIPs are carved densely from per-region blocks (so the provider can
// aggregate routes internally, §4 Connectivity), default-off admission is
// enforced by package permit, SIP load balancing by package lb, exit paths
// by package qos, and everything that touches traffic — flows, regional
// egress enforcement, the reaction to failures — lives in whatever
// network the cloud programs through its one data-plane seam
// (dataplane.go): the flow-level simulator in-process (package simplane),
// none in declnetd.
//
// Tenants never see a VPC, gateway, route table, or appliance — that is
// the point.
//
// Concurrency: control-plane state is sharded by (tenant, region) — see
// shard.go. Every mutation goes through Cloud.Apply (apply.go), which
// takes the verb's shard write lock, so verbs in different shards run
// concurrently; the read plane (connect admission, Probe, Explain) takes
// shard read locks in deterministic order. Tenant (tenant.go) is the
// only Go facade for the verbs; the unexported bodies here assume the
// caller already holds the right lock.
package core

import (
	"fmt"
	"sync"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/lb"
	"declnet/internal/obs"
	"declnet/internal/permit"
	"declnet/internal/qos"
	"declnet/internal/topo"
)

// EIP is an endpoint IP: flat, globally routable, default-off.
type EIP = addr.IP

// SIP is a service IP: globally routable, load balanced to bound EIIPs.
type SIP = addr.IP

// service is the provider's installed record for one granted SIP.
type service struct {
	sip      SIP
	balancer *lb.Balancer
}

// regionBlocks is how the provider carves address space: each region gets
// dense blocks so internal route aggregation works (the flexibility §4
// says flat addressing gives providers). Immutable after NewProvider; the
// declared state's pool over base grants its addresses
// (intent.State.NextGrant).
type regionBlocks struct {
	base  addr.Prefix
	shard string // "provider/region": the ShardKey.Region and SLO tag of everything in the block, built once
}

// Provider is one cloud's control plane implementing the Table-2 API.
// A multi-cloud world has one Provider per cloud sharing a topo.Graph and
// the cloud's data plane (the public internet connects them).
type Provider struct {
	Name string

	// eipBlocks keys by region name; immutable after NewProvider.
	eipBlocks map[string]*regionBlocks

	// services is the installed half of each granted SIP: its balancer.
	// Every tenant shard homed on the provider shares it, so the shard
	// locks above cannot be its memory-safety story: two tenants mutating
	// the same provider run under different shard locks. Instead it is an
	// addr.Table, striped by /16 block. An endpoint has no installed
	// record: its declared one (intent.State, Cloud.decl) is what the read
	// plane resolves, and its VM is the node the EIP fronts.
	services addr.Table[*service]

	// Permits is the provider's enforcement engine, an addr.Table of its
	// own. Exposed for experiments that measure its scale directly.
	Permits *permit.Engine

	// polMu guards potato, each tenant's transit profile (default hot,
	// §4 QoS): low-traffic state shared across the tenant's shards.
	polMu  sync.RWMutex
	potato map[string]qos.PotatoPolicy

	// cloud is the enclosing Cloud: its shard table, SLO plane, declared
	// state, data plane and decision tracer are the ones every verb body
	// uses.
	cloud *Cloud

	cfg Config
}

// stampPermitLag marks an accepted permit update for the SLO plane's
// live propagation-lag sampler; resolved at the next admission check
// of target. Called from the unlocked verb bodies so the batch
// path samples too.
func (p *Provider) stampPermitLag(tenant string, target addr.IP) {
	p.cloud.slo.StampPermit(tenant, target)
}

// Config parameterizes a provider.
type Config struct {
	// EIPBase is the provider's public block, carved per region.
	// Each region receives consecutive /16s from it.
	EIPBase addr.Prefix
	// SIPBase is the provider's service-address block, a /16 or
	// narrower: the journal replays a pool's grants no farther apart.
	SIPBase addr.Prefix
}

// defaultVMEgress is the per-VM egress cap applied when the tenant sets
// none (bits/s): the standard guarantee adopted unchanged from today's
// clouds (§4 QoS).
const defaultVMEgress = 5 * topo.Gbps

// newProvider returns a control plane for the named cloud over the shared
// world (Cloud.AddProvider attaches it). Regions are discovered from the
// graph's host nodes.
func newProvider(name string, g *topo.Graph, cfg Config) (*Provider, error) {
	if cfg.EIPBase.Len > 16 {
		return nil, fmt.Errorf("core: EIP base %s too small to carve /16 region blocks", cfg.EIPBase)
	}
	if cfg.SIPBase.Len < 16 {
		return nil, fmt.Errorf("core: SIP base %s is wider than a /16", cfg.SIPBase)
	}
	p := &Provider{
		Name:      name,
		eipBlocks: make(map[string]*regionBlocks),
		Permits:   permit.NewEngine(),
		potato:    make(map[string]qos.PotatoPolicy),
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
		p.eipBlocks[r] = &regionBlocks{base: pfx, shard: name + "/" + r}
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

// checkHost refuses a request_eip for node n this provider cannot grant:
// not a compute endpoint, another provider's, or in a region with no block.
func (p *Provider) checkHost(n *topo.Node) (*regionBlocks, error) {
	if n.Kind != topo.Host {
		return nil, fmt.Errorf("core: %q is not a compute endpoint", n.ID)
	}
	if n.Provider != p.Name {
		return nil, fmt.Errorf("core: VM %q belongs to provider %q, not %q", n.ID, n.Provider, p.Name)
	}
	blocks, ok := p.eipBlocks[n.Region]
	if !ok {
		return nil, fmt.Errorf("core: no address block for region %q", n.Region)
	}
	return blocks, nil
}

// released is the rest of what a release installs — its declare drops
// the permit list before the fold, so that no reader finding a released
// address undeclared finds a list still installed for it: for a SIP, its
// balancer goes. The fold already returned the address to its declared
// pool.
func (p *Provider) released(tenant string, a addr.IP, sip bool) {
	if sip {
		p.services.Delete(a)
	}
	p.cloud.tenantDelta(tenant, -1)
}

// installPermits installs the list a folded set_permit, permit or revoke
// op declared for its target, or hands it to the data plane to defer
// when the target's enforcement point is unreachable. set_permit installs the
// declared set itself. permit and revoke derive from the installed list:
// from a converged one (the op's Prev) they install the declared set
// (Next), so declared and installed hold one record; from a drifted one
// they derive its own successor, and the reconciler repairs it. The epoch
// advances once per entry set, permitted or actually removed; revoking
// from an unguarded target changes nothing.
func (p *Provider) installPermits(tenant string, op *intent.Op) {
	target, edits := op.Target, len(op.Entries)
	if op.Verb == intent.OpRevoke {
		edits = op.Prev.Len() - op.Next.Len()
	}
	// Under fault injection, an update targeting an endpoint whose
	// enforcement point is partitioned away cannot land immediately: it
	// is accepted and retried until the node answers or the policy's
	// timeout expires. SIP targets are enforced at the (always-on)
	// service frontend and never defer.
	if ep, ok := p.cloud.decl.Endpoint(target); ok && !p.cloud.plane.Reachable(topo.NodeID(ep.VM)) {
		if op.Next != nil {
			p.cloud.plane.DeferPermit(p, tenant, target, edits, op.Verb == intent.OpSetPermit, topo.NodeID(ep.VM))
		}
		return
	}
	if op.Verb == intent.OpSetPermit {
		epoch := p.Permits.Install(target, op.Next, uint64(edits))
		p.stampPermitLag(tenant, target)
		p.cloud.TraceEvent(tenant, obs.Decision{Kind: obs.PermitUpdate, Dst: target, Verdict: obs.OK,
			Entries: uint32(edits), Epoch: epoch})
		return
	}
	if cur, guarded := p.Permits.List(target); guarded || op.Verb == intent.OpPermit {
		prev, next := cur.Set(), op.Next
		if !addr.EqualSets(prev, op.Prev) {
			next = op.Successor(prev)
		}
		edits := len(op.Entries)
		if op.Verb == intent.OpRevoke {
			edits = prev.Len() - next.Len()
		}
		p.Permits.Install(target, next, cur.Version()+uint64(edits))
	}
	for range op.Entries {
		p.stampPermitLag(tenant, target)
	}
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

// MarkHealth is the provider health checker's signal for a bound backend.
// Structure-safe without shard locks: it only flips balancer health bits
// under the balancers' own mutexes.
func (p *Provider) MarkHealth(eip EIP, healthy bool) {
	for _, svc := range p.services.All() {
		_ = svc.balancer.SetHealth(eip, healthy) // lb.ErrNotBound where it is not a backend
	}
}

// Lookup returns the endpoint behind an EIP.
func (p *Provider) Lookup(eip EIP) (topo.NodeID, bool) {
	ep, ok := p.cloud.decl.Endpoint(eip)
	if !ok || ep.Provider != p.Name {
		return "", false
	}
	return topo.NodeID(ep.VM), true
}

// Service returns the balancer behind a SIP (read-only use in tests).
func (p *Provider) Service(sip SIP) (*lb.Balancer, bool) {
	svc, ok := p.services.Get(sip)
	if !ok {
		return nil, false
	}
	return svc.balancer, true
}

// EndpointCount returns granted EIPs (the declared endpoints in its
// region blocks); ServiceCount granted SIPs.
func (p *Provider) EndpointCount() int {
	n := 0
	for _, b := range p.eipBlocks {
		n += p.cloud.decl.Endpoints().Count(b.base)
	}
	return n
}
func (p *Provider) ServiceCount() int { return p.services.Len() }
