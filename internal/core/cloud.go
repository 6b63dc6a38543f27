package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/metrics"
	"declnet/internal/netsim"
	"declnet/internal/obs"
	"declnet/internal/qos"
	"declnet/internal/sim"
	"declnet/internal/slo"
	"declnet/internal/topo"
)

// Cloud is the multi-provider world a tenant sees: several Providers
// over one shared substrate graph, and one tenant surface across them —
// Tenant, whose verbs take the same form whichever provider serves them.
// That is the §5 claim that "the basic interface will be constant
// between clouds".
type Cloud struct {
	Eng *sim.Engine
	G   *topo.Graph
	Net *netsim.Network

	// pidx is the provider registry: a copy-on-write index, replaced
	// only under the shard set's global gate (AddProvider), that the
	// lock-free read plane resolves addresses through — provider-by-name
	// plus the sorted address-block table mapping any granted-range IP
	// to its provider.
	pidx atomic.Pointer[provIndex]

	// shards partitions the write plane by (tenant, region); see
	// shard.go.
	shards *ShardSet

	// engMu serializes what holders of the gate's read side write into
	// Eng and Net: a new quota limiter's ticker (Provider.quota), a
	// deferred permit update's first retry (FaultMonitor.retryPermit),
	// and Connect's flow start and limiter attach. Advancing the engine
	// takes the gate's write side instead (Exclusive).
	engMu sync.Mutex

	// nmMu guards the two tenant-scoped naming maps below.
	nmMu sync.RWMutex
	// groups holds tenant-scoped endpoint groups, whose members may span
	// providers — the grouping extension of §4, usable as permit sources
	// at any provider: tenant -> group -> members.
	groups map[string]map[string][]EIP
	// names holds tenant-scoped service names — the §6 "abstract above
	// details such as IP addresses entirely?" extension: tenants may
	// address endpoints and services by name and never see an address.
	names map[string]map[string]addr.IP

	// monitor is the fault-reaction loop: built idle with the cloud,
	// its health ticker armed by EnableFaults.
	monitor *FaultMonitor

	// trace and reg are the observability plane, nil until
	// EnableObservability; see observe.go. The m* fields cache registry
	// instruments so the Connect hot path skips the registry lock (nil
	// instruments no-op).
	trace           *obs.Tracer
	reg             *metrics.Registry
	mConnects       *metrics.RCounter
	mConnectsDenied *metrics.RCounter
	mConnectsErr    *metrics.RCounter
	mProbes         *metrics.RCounter
	mExplains       *metrics.RCounter

	// slo is the live SLO plane, nil until EnableSLO (see slo.go);
	// nil-safe at every call site like the tracer.
	slo *slo.Plane

	// rec is the durable intent store, nil until EnableIntent (see
	// intent.go in this package); every call site checks for nil.
	rec *intent.Log

	// reconciler is the desired-state engine, nil until EnableReconciler
	// (see reconcile.go).
	reconciler *Reconciler

	// conv holds the reconciler's per-provider dirty sets; see
	// convtrack.go. Fed by every journaled mutation once EnableIntent
	// attaches a store, plus the fault monitor's deferred permit landings.
	// Zero-value-usable.
	conv convTracker

	// refMu guards tenantRefs: live address grants per tenant, so the
	// observability planes can evict a fully-released tenant's state
	// (trace ring, SLO shards) instead of growing with tenant churn.
	refMu      sync.Mutex
	tenantRefs map[string]int

	// router is the epoch-keyed path cache in front of qos.PathFor; every
	// Connect/Probe/Explain routes through it.
	router *qos.Router
}

// provIndex is one immutable snapshot of the provider registry.
type provIndex struct {
	byName map[string]*Provider
	list   []*Provider // sorted by name, for deterministic sweeps
	blocks []provBlock // sorted by base address
}

// provBlock maps one carved address block (a region's EIP /16 or a
// provider's SIP base) to its provider, its region ("" for the SIP
// block) and the shard string every address in it belongs to —
// "provider/region", or "provider" for the SIP block — so one binary
// search routes an address without building a string.
type provBlock struct {
	base   addr.Prefix
	p      *Provider
	region string
	shard  string
}

// NewCloud wraps a world graph in a simulation. The control plane is
// sharded by (tenant, region); use NewSingleShardCloud for the
// globally-serialized build.
func NewCloud(seed int64, g *topo.Graph) *Cloud {
	return newCloud(seed, g, false)
}

// NewSingleShardCloud is NewCloud with the shard table collapsed to one
// shard: every verb serializes on the same lock, reproducing the
// pre-sharding write plane. The sharded-vs-unsharded parity property
// test replays identical schedules against both builds.
func NewSingleShardCloud(seed int64, g *topo.Graph) *Cloud {
	return newCloud(seed, g, true)
}

func newCloud(seed int64, g *topo.Graph, singleShard bool) *Cloud {
	eng := sim.New(seed)
	c := &Cloud{
		Eng: eng, G: g, Net: netsim.New(g, eng),
		shards:     newShardSet(singleShard),
		groups:     make(map[string]map[string][]EIP),
		names:      make(map[string]map[string]addr.IP),
		tenantRefs: make(map[string]int),
		router:     qos.NewRouter(g),
	}
	c.pidx.Store(&provIndex{byName: map[string]*Provider{}})
	c.monitor = newFaultMonitor(c)
	return c
}

// Router returns the epoch-keyed path cache serving this cloud's
// connect/probe/explain path selection.
func (c *Cloud) Router() *qos.Router { return c.router }

// Shards returns the shard table (experiments report its size).
func (c *Cloud) Shards() *ShardSet { return c.shards }

// Exclusive runs step with the whole world held still, under the shard
// set's exclusive gate: every in-flight verb and read drains first and
// the next one sees the step whole. It is how set-up attaches a provider
// or a plane, and how an embedder serving verbs concurrently advances
// the engine (Eng.Run, fault injection). step must not call a verb, a
// read or Exclusive itself: the gate is not reentrant.
func (c *Cloud) Exclusive(step func()) {
	defer c.shards.lockGlobal()()
	step()
}

// engineRead wraps a read of engine-owned state — the event queue, the
// solver and fault counters — for a metrics scrape: the gate's read side
// excludes an exclusive step advancing the engine, engMu a verb
// scheduling on it or starting a flow.
func (c *Cloud) engineRead(read func() float64) func() float64 {
	return func() float64 {
		defer c.shards.rlockGlobal()()
		c.engMu.Lock()
		defer c.engMu.Unlock()
		return read()
	}
}

// Now reads the virtual clock, which only an exclusive step advances
// while verbs are being served.
func (c *Cloud) Now() time.Duration {
	defer c.shards.rlockGlobal()()
	return c.Eng.Now()
}

// AddProvider creates a provider control plane for the named cloud.
func (c *Cloud) AddProvider(name string, cfg Config) (p *Provider, err error) {
	c.Exclusive(func() { p, err = c.addProvider(name, cfg) })
	return p, err
}

// AddFig1Providers attaches the Figure-1 address plan to c: a control
// plane for each of w's two clouds and for its on-prem site, each with
// its own EIP and SIP blocks. It returns them in that order.
func AddFig1Providers(c *Cloud, w *topo.Fig1World) (a, b, onprem *Provider, err error) {
	add := func(name, eips, sips string) (p *Provider) {
		if err == nil {
			p, err = c.AddProvider(name, Config{EIPBase: addr.MustParsePrefix(eips), SIPBase: addr.MustParsePrefix(sips)})
		}
		return p
	}
	a = add(w.CloudA, "100.64.0.0/10", "100.127.0.0/16")
	b = add(w.CloudB, "104.0.0.0/8", "104.255.0.0/16")
	onprem = add("onprem", "108.0.0.0/8", "108.255.0.0/16")
	return a, b, onprem, err
}

func (c *Cloud) addProvider(name string, cfg Config) (*Provider, error) {
	if _, ok := c.pidx.Load().byName[name]; ok {
		return nil, fmt.Errorf("core: duplicate provider %q", name)
	}
	p, err := newProvider(name, c.Eng, c.G, c.Net, cfg)
	if err != nil {
		return nil, err
	}
	p.cloud = c
	c.rebuildIndex(p)
	if c.reg != nil {
		c.registerProviderMetrics(name, p)
	}
	return p, nil
}

// rebuildIndex publishes the next provider index: the current one plus
// p. The caller holds the global gate.
func (c *Cloud) rebuildIndex(p *Provider) {
	cur := c.pidx.Load()
	idx := &provIndex{
		byName: maps.Clone(cur.byName),
		list:   append(slices.Clone(cur.list), p),
		blocks: slices.Clone(cur.blocks),
	}
	idx.byName[p.Name] = p
	slices.SortFunc(idx.list, func(a, b *Provider) int { return cmp.Compare(a.Name, b.Name) })
	for r, b := range p.eipBlocks {
		idx.blocks = append(idx.blocks, provBlock{base: b.base, p: p, region: r, shard: b.shard})
	}
	idx.blocks = append(idx.blocks, provBlock{base: p.cfg.SIPBase, p: p, shard: p.Name})
	sort.Slice(idx.blocks, func(i, j int) bool { return idx.blocks[i].base.Addr < idx.blocks[j].base.Addr })
	c.pidx.Store(idx)
}

// block resolves the carved address block containing ip (binary search
// over the sorted disjoint block table); nil when ip is in no
// provider's space.
func (c *Cloud) block(ip addr.IP) *provBlock {
	blocks := c.pidx.Load().blocks
	i := sort.Search(len(blocks), func(i int) bool { return blocks[i].base.Addr > ip }) - 1
	if i < 0 || !blocks[i].base.Contains(ip) {
		return nil
	}
	return &blocks[i]
}

// blockOwner resolves which provider's carved address space contains ip.
func (c *Cloud) blockOwner(ip addr.IP) (*Provider, bool) {
	if b := c.block(ip); b != nil {
		return b.p, true
	}
	return nil, false
}

// shardKeyOf is the shard a (tenant, address) pair belongs to:
// (tenant, provider/region) for an address in a region block, the
// tenant's provider-wide shard for a SIP, the tenant's region-less shard
// for an address in nobody's space. It is static — the block carving
// never changes — so it is the same before an address is granted, while
// it is, and after. Address-targeted verbs lock it; the cross-shard
// connect protocol read-locks it for both endpoints, always under the
// connecting tenant — the lock expresses whose activity may contend, and
// a cross-tenant destination's own shard stays free for its owner.
func (c *Cloud) shardKeyOf(tenant string, ip addr.IP) ShardKey {
	if b := c.block(ip); b != nil {
		return ShardKey{Tenant: tenant, Region: b.shard}
	}
	return ShardKey{Tenant: tenant}
}

// createGroup checks ownership under nmMu, as registerName does: a
// release forgets under it too, once the address has left its
// provider's table, so no group keeps a released member.
func (c *Cloud) createGroup(tenant, name string, members []EIP) error {
	c.nmMu.Lock()
	defer c.nmMu.Unlock()
	for _, m := range members {
		p, ok := c.providerOfAddr(m)
		if !ok {
			return fmt.Errorf("core: group member %s is not a granted address", m)
		}
		if _, err := p.owned(tenant, m); err != nil {
			return err
		}
	}
	if c.groups[tenant] == nil {
		c.groups[tenant] = make(map[string][]EIP)
	}
	c.groups[tenant][name] = append([]EIP(nil), members...)
	return nil
}

// groupMembers looks up one of a tenant's groups.
func (c *Cloud) groupMembers(tenant, group string) ([]EIP, bool) {
	c.nmMu.RLock()
	defer c.nmMu.RUnlock()
	members, ok := c.groups[tenant][group]
	return members, ok
}

// Provider returns a control plane by name.
func (c *Cloud) Provider(name string) (*Provider, bool) {
	p, ok := c.pidx.Load().byName[name]
	return p, ok
}

// SetBiller attaches usage metering to every provider currently in the
// cloud (call after AddProvider).
func (c *Cloud) SetBiller(b Biller) {
	for _, p := range c.pidx.Load().list {
		p.SetBiller(b)
	}
}

// ProviderOf finds which provider granted an address (EIP or SIP).
func (c *Cloud) ProviderOf(ip addr.IP) (*Provider, bool) {
	return c.providerOfAddr(ip)
}

// providerOfAddr finds which provider granted an address (EIP or SIP).
// Exact and lock-free on the index: the block table names the only
// provider whose pools could have granted ip, and its striped address
// tables answer whether it actually did. (This replaced an epoch-keyed
// result cache: the cache's global invalidation epoch meant churn in one
// shard wiped every shard's entries, and the index lookup is cheap
// enough to skip caching entirely.)
func (c *Cloud) providerOfAddr(ip addr.IP) (*Provider, bool) {
	p, ok := c.blockOwner(ip)
	if !ok {
		return nil, false
	}
	if _, ok := p.endpoints.Get(ip); ok {
		return p, true
	}
	if _, ok := p.services.Get(ip); ok {
		return p, true
	}
	return nil, false
}

// admitted is the admission check of the connect path: the destination
// provider's permit engine, one Lookups unit per call. The first check of
// a target after a stamped permit update is the moment that update became
// visible to admission — the resolve point of the SLO plane's live
// permit-propagation-lag sampler; the pending gate keeps the idle cost to
// one atomic load.
func (c *Cloud) admitted(dstProv *Provider, src, dst addr.IP) bool {
	allowed := dstProv.Permits.Check(src, dst)
	if c.slo.PendingLagSamples() > 0 {
		region := dstProv.Name
		if ep, ok := dstProv.endpoints.Get(dst); ok {
			region = ep.shard
		}
		c.slo.ResolveLag(dst, region)
	}
	return allowed
}

// Conn is one admitted connection: a live flow plus the load-balancer and
// quota bookkeeping needed to tear it down cleanly.
type Conn struct {
	Flow   *netsim.Flow
	Path   topo.Path
	SrcEIP EIP
	DstEIP EIP

	cloud    *Cloud
	adapter  *flowAdapter
	enforcer *qos.Enforcer
	release  func()
	closed   bool

	tenant string
	class  QoSClass
	biller Biller
	billed bool
}

// Close ends the connection, releasing its backend slot and quota share.
func (cn *Conn) Close() {
	if cn.closed {
		return
	}
	cn.closed = true
	if cn.Flow != nil && !cn.Flow.Done() {
		cn.cloud.Net.Stop(cn.Flow)
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
	if cn.billed || cn.biller == nil || cn.Flow == nil {
		return
	}
	cn.billed = true
	cn.biller.AddBytes(cn.tenant, cn.cloud.Eng.Now(), cn.Flow.SentBytes(), cn.class == Reserved)
}

// flowAdapter lets the distributed limiter shape a netsim flow.
type flowAdapter struct {
	net    *netsim.Network
	flow   *netsim.Flow
	demand float64
	vmCap  float64
}

// SetCap implements qos.RateSetter, respecting the per-VM egress cap.
func (a *flowAdapter) SetCap(bps float64) {
	if a.vmCap > 0 && (bps == 0 || bps > a.vmCap) {
		bps = a.vmCap
	}
	a.net.SetMaxRate(a.flow, bps)
}

// Demand implements qos.RateSetter.
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

func (c *Cloud) connect(op *slo.Op, tenant string, src EIP, dst addr.IP, opts ConnectOpts) (*Conn, error) {
	srcProv, ok := c.providerOfAddr(src)
	if !ok {
		return nil, fmt.Errorf("core: unknown source EIP %s", src)
	}
	srcEp, err := srcProv.owned(tenant, src)
	if err != nil {
		return nil, err
	}
	op.SetRegion(srcEp.shard)
	dstProv, ok := c.providerOfAddr(dst)
	if !ok {
		return nil, fmt.Errorf("core: destination %s is not a granted address", dst)
	}
	// (1) Default-off admission, enforced by the destination's provider
	// against the address the client targeted (EIP or SIP).
	stg := op.StageStart()
	admitOK := c.admitted(dstProv, src, dst)
	op.StageEnd(stg, "permit")
	if !admitOK {
		if c.trace != nil {
			dec := dstProv.Permits.Explain(src, dst)
			cause := obs.Chain("permit-deny:"+dst.String(), "src-not-in-permit-list")
			if !dec.HasList {
				cause = obs.Chain("permit-deny:"+dst.String(), "no-permit-list")
			}
			c.traceEvent(tenant, obs.Decision{Kind: obs.PermitDeny, Src: src, Dst: dst, Verdict: obs.Deny,
				Entries: uint32(dec.Entries), Epoch: dec.Version, Cause: cause})
		}
		c.mConnectsDenied.Inc()
		return nil, fmt.Errorf("core: %s not permitted to reach %s (default-off)", src, dst)
	}
	if c.trace != nil {
		dec := dstProv.Permits.Explain(src, dst)
		c.traceEvent(tenant, obs.Decision{Kind: obs.PermitAllow, Src: src, Dst: dst, Verdict: obs.OK,
			Detail: "entry=" + dec.Matched.String() + " epoch=" + strconv.FormatUint(dec.Version, 10)})
	}
	// (2) Resolve SIP -> backend EIP via the provider's balancer.
	dstEIP := dst
	var release func()
	if svc, isSIP := dstProv.services.Get(dst); isSIP {
		stg = op.StageStart()
		be, err := svc.balancer.Pick()
		op.StageEnd(stg, "balance")
		if err != nil {
			c.traceEvent(tenant, obs.Decision{Kind: obs.SIPPick, Src: src, Dst: dst, Verdict: obs.Fail,
				Detail: "healthy=0/" + strconv.Itoa(len(svc.balancer.Backends())),
				Cause:  "no-healthy-backend:" + dst.String()})
			c.mConnectsErr.Inc()
			return nil, fmt.Errorf("core: %s: %w", dst, err)
		}
		c.traceEvent(tenant, obs.Decision{Kind: obs.SIPPick, Src: src, Dst: dst, Verdict: obs.OK,
			Detail: "backend=" + be.EIP.String() + " healthy=" + strconv.Itoa(svc.balancer.HealthyCount()) +
				"/" + strconv.Itoa(len(svc.balancer.Backends()))})
		dstEIP = be.EIP
		bal := svc.balancer
		release = func() { bal.Release(be) }
	}
	dstEp, ok := dstProv.endpoints.Get(dstEIP)
	if !ok {
		if release != nil {
			release()
		}
		c.mConnectsErr.Inc()
		return nil, fmt.Errorf("core: backend %s vanished", dstEIP)
	}
	// (3) Path under the tenant's transit profile.
	policy := srcProv.potatoOf(tenant)
	stg = op.StageStart()
	path, err := c.router.PathFor(policy, srcEp.node, dstEp.node)
	op.StageEnd(stg, "path")
	if err != nil {
		if release != nil {
			release()
		}
		c.traceEvent(tenant, obs.Decision{Kind: obs.PathSelect, Src: src, Dst: dstEIP, Verdict: obs.Fail,
			Detail: fmt.Sprintf("policy=%v", policy), Cause: fmt.Sprintf("no-path:%v", policy)})
		c.mConnectsErr.Inc()
		return nil, err
	}
	c.traceEvent(tenant, obs.Decision{Kind: obs.PathSelect, Src: src, Dst: dstEIP, Verdict: obs.OK,
		Detail: "policy=" + policy.String() + " hops=" + strconv.Itoa(len(path)) +
			" delay=" + time.Duration(path.Delay()).String()})
	// (4) Start the flow under the per-VM cap, then attach it to the
	// regional egress limiter when it leaves the source region.
	// Cross-region/cloud reserved egress is subject to the tenant's
	// regional quota when one is set; best-effort traffic bypasses the
	// reservation entirely (§4 footnote extension). The quota is found
	// before engMu, which a new limiter takes inside the provider's polMu;
	// the netsim and engine writes after it run under engMu.
	var tq *tenantQuota
	if opts.Class == Reserved && (dstEp.provider != srcEp.provider || dstEp.region != srcEp.region) {
		tq, _ = srcProv.quotaOf(tenant, srcEp.region)
	}
	c.engMu.Lock()
	defer c.engMu.Unlock()
	vmCap := srcEp.egressCap
	if vmCap == 0 {
		vmCap = defaultVMEgress
	}
	demand := opts.Demand
	if demand == 0 {
		demand = path.Bottleneck()
	}
	if demand > vmCap {
		demand = vmCap
	}
	cn := &Conn{
		Path: path, SrcEIP: src, DstEIP: dstEIP,
		cloud: c, release: release,
		tenant: tenant, class: opts.Class, biller: srcProv.meter,
	}
	flow, err := c.Net.StartFlow(&netsim.Flow{
		Path:    path,
		Size:    opts.SizeBytes,
		MaxRate: vmCap,
		OnDone: func(fct time.Duration) {
			cn.bill()
			if opts.OnDone != nil {
				opts.OnDone(fct)
			}
		},
	})
	if err != nil {
		if release != nil {
			release()
		}
		return nil, err
	}
	cn.Flow = flow
	stg = op.StageStart()
	if tq != nil {
		tq.mu.Lock()
		quota := tq.quota
		if quota > 0 {
			ad := &flowAdapter{net: c.Net, flow: flow, demand: demand, vmCap: vmCap}
			enf, found := tq.enforcer[srcEp.node]
			if !found {
				enf = qos.NewEnforcer(string(srcEp.node))
				tq.enforcer[srcEp.node] = enf
				tq.limiter.AddEnforcer(enf)
			}
			enf.Attach(ad)
			tq.limiter.Redistribute()
			cn.adapter = ad
			cn.enforcer = enf
		}
		tq.mu.Unlock()
		if quota > 0 {
			c.traceEvent(tenant, obs.Decision{Kind: obs.QoSThrottle, Src: src, Dst: dstEIP, Verdict: obs.OK,
				Detail: fmt.Sprintf("region=%s quota=%.3gbps demand=%.3gbps", srcEp.region, quota, demand)})
		}
	}
	op.StageEnd(stg, "qos")
	c.mConnects.Inc()
	return cn, nil
}

func (c *Cloud) probe(op *slo.Op, tenant string, src EIP, dst addr.IP) (time.Duration, bool, error) {
	srcProv, ok := c.providerOfAddr(src)
	if !ok {
		return 0, false, fmt.Errorf("core: unknown source EIP %s", src)
	}
	srcEp, err := srcProv.owned(tenant, src)
	if err != nil {
		return 0, false, err
	}
	op.SetRegion(srcEp.shard)
	dstProv, ok := c.providerOfAddr(dst)
	if !ok {
		return 0, false, fmt.Errorf("core: destination %s is not a granted address", dst)
	}
	stg := op.StageStart()
	admitOK := c.admitted(dstProv, src, dst)
	op.StageEnd(stg, "permit")
	if !admitOK {
		return 0, false, fmt.Errorf("core: %s not permitted to reach %s (default-off)", src, dst)
	}
	dstEIP := dst
	if svc, isSIP := dstProv.services.Get(dst); isSIP {
		be, err := svc.balancer.Pick()
		if err != nil {
			return 0, false, err
		}
		dstEIP = be.EIP
		defer svc.balancer.Release(be)
	}
	dstEp, ok := dstProv.endpoints.Get(dstEIP)
	if !ok {
		return 0, false, fmt.Errorf("core: backend %s vanished", dstEIP)
	}
	policy := srcProv.potatoOf(tenant)
	stg = op.StageStart()
	path, err := c.router.PathFor(policy, srcEp.node, dstEp.node)
	op.StageEnd(stg, "path")
	if err != nil {
		return 0, false, err
	}
	rtt := c.Net.RTT(path)
	ok = c.Net.Delivered(path) && c.Net.Delivered(path)
	c.mProbes.Inc()
	return rtt, ok, nil
}

func (c *Cloud) registerName(tenant, name string, target addr.IP) error {
	c.nmMu.Lock()
	defer c.nmMu.Unlock()
	p, ok := c.providerOfAddr(target)
	if !ok {
		return fmt.Errorf("core: %s is not a granted address", target)
	}
	if err := p.ownsTarget(tenant, target); err != nil {
		return err
	}
	if c.names[tenant] == nil {
		c.names[tenant] = make(map[string]addr.IP)
	}
	c.names[tenant][name] = target
	return nil
}

func (c *Cloud) unregisterName(tenant, name string) error {
	c.nmMu.Lock()
	defer c.nmMu.Unlock()
	if _, ok := c.names[tenant][name]; !ok {
		return fmt.Errorf("core: tenant %q has no name %q", tenant, name)
	}
	delete(c.names[tenant], name)
	return nil
}

// forget drops a released address from the tenant's groups and names,
// so that neither resolves to it once the pool hands it to someone
// else. The release calls it after the address has left its provider's
// table and before the pool may reuse it. A permit list expanded from a
// group earlier keeps its /32: it was derived at set time and the
// release does not rewrite it.
func (c *Cloud) forget(tenant string, a addr.IP) {
	c.nmMu.Lock()
	defer c.nmMu.Unlock()
	for name, members := range c.groups[tenant] {
		if slices.Contains(members, a) {
			c.groups[tenant][name] = slices.DeleteFunc(slices.Clone(members), func(m EIP) bool { return m == a })
		}
	}
	for name, target := range c.names[tenant] {
		if target == a {
			delete(c.names[tenant], name)
		}
	}
}

// Admitted reports whether src may currently reach dst — the pure
// admission decision, used heavily by the security experiment and as
// the scale harness's permit-propagation probe.
func (c *Cloud) Admitted(src EIP, dst addr.IP) bool {
	dstProv, ok := c.providerOfAddr(dst)
	if !ok {
		return false
	}
	return c.admitted(dstProv, src, dst)
}

// Ensure interface satisfaction.
var _ qos.RateSetter = (*flowAdapter)(nil)
