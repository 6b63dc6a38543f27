// Durable intent: wiring between the control plane and the
// append-only journal in internal/intent. EnableIntent attaches a store
// so Cloud.Apply records every accepted mutation; RestoreIntent
// rebuilds the in-memory world from a replayed State after a daemon
// restart; StateDigest canonically hashes the live control-plane state
// so kill-and-restart equivalence is a string comparison. The Drift*
// methods are test/chaos hooks that corrupt the simulated dataplane
// behind the declared state's back, for the reconciler (reconcile.go)
// to find and repair.
package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/lb"
	"declnet/internal/qos"
	"declnet/internal/topo"
)

// EnableIntent attaches the durable intent store. Mutations accepted
// after this point are journaled, and each journaled one feeds the
// reconciler's dirty sets (convtrack.go); call it before serving traffic
// (the daemon does, right after RestoreIntent).
func (c *Cloud) EnableIntent(l *intent.Log) {
	c.Exclusive(func() { c.rec = l })
}

// Intent returns the attached store, or nil before EnableIntent.
func (c *Cloud) Intent() *intent.Log { return c.rec }

// RestoreIntent rebuilds the in-memory control plane from a replayed
// declared state: address pools rewound to their recorded cursors,
// endpoints and services re-granted at their original addresses,
// balancers re-bound, permit lists re-installed, QoS and policy state
// re-applied. Call it once, on an otherwise-fresh Cloud built over the
// same world (the daemon compares the store's Meta stamps first), and
// before EnableIntent — restoration itself must not re-journal.
// Restoration fans out across GOMAXPROCS workers phase by phase.
func (c *Cloud) RestoreIntent(st *intent.State) error {
	return c.RestoreIntentWorkers(st, runtime.GOMAXPROCS(0))
}

// RestoreIntentWorkers is RestoreIntent with an explicit worker count
// (tests force >1 on single-core machines; 1 restores serially).
// Phases run in dependency order — pools, then endpoints, services, and
// permit lists each fanned out across workers, then the serial policy
// tail — so no worker ever needs state a concurrent worker is building.
// Within a phase items are independent: every write lands in a striped
// table under its own stripe lock, keyed by a distinct address, and the
// final state is identical for any interleaving.
func (c *Cloud) RestoreIntentWorkers(st *intent.State, workers int) error {
	if st == nil {
		return nil
	}
	defer c.shards.lockGlobal()()

	idx := c.pidx.Load()

	// Pools first, so the cursors are exact even for addresses whose
	// endpoints are restored below (Restore rebuilds inUse wholesale).
	for _, p := range idx.list {
		for _, region := range p.Regions() {
			ps := st.EIPPools[intent.PoolKey(p.Name, region)]
			if ps == nil {
				continue
			}
			var inUse []addr.IP
			for eip, ep := range st.Endpoints {
				if ep.Provider == p.Name && ep.Region == region {
					inUse = append(inUse, eip)
				}
			}
			p.eipBlocks[region].pool.Restore(ps.Next, ps.Released, inUse)
		}
		if ps := st.SIPPools[p.Name]; ps != nil {
			var inUse []addr.IP
			for sip, svc := range st.Services {
				if svc.Provider == p.Name {
					inUse = append(inUse, sip)
				}
			}
			p.sipBlock.Restore(ps.Next, ps.Released, inUse)
		}
	}

	// Endpoints. The sort is not for determinism of the result — the
	// tables are maps — but keeps worker chunks region-contiguous, so
	// parallel installs mostly touch disjoint stripes.
	eips := sortedKeys(st.Endpoints)
	err := restoreParallel(len(eips), workers, func(i int) error {
		eip := eips[i]
		ep := st.Endpoints[eip]
		p, ok := idx.byName[ep.Provider]
		if !ok {
			return fmt.Errorf("core: restore: endpoint %s references unknown provider %q", eip, ep.Provider)
		}
		p.endpoints.Put(eip, &endpoint{
			eip: eip, tenant: ep.Tenant, node: topo.NodeID(ep.VM),
			provider: ep.Provider, region: ep.Region,
			shard:     ep.Provider + "/" + ep.Region,
			egressCap: ep.EgressCap,
		})
		c.tenantDelta(ep.Tenant, 1)
		return nil
	})
	if err != nil {
		return err
	}

	// Services and their bindings. Each worker builds a balancer
	// privately and publishes it with one striped-table store.
	sips := sortedKeys(st.Services)
	err = restoreParallel(len(sips), workers, func(i int) error {
		sip := sips[i]
		svc := st.Services[sip]
		p, ok := idx.byName[svc.Provider]
		if !ok {
			return fmt.Errorf("core: restore: service %s references unknown provider %q", sip, svc.Provider)
		}
		bal := lb.New(sip)
		for _, b := range svc.Binds {
			bal.Bind(b.EIP, b.Weight)
		}
		p.services.Put(sip, &service{sip: sip, tenant: svc.Tenant, balancer: bal})
		c.tenantDelta(svc.Tenant, 1)
		return nil
	})
	if err != nil {
		return err
	}

	// Permit lists, installed at the owning provider's engine: each
	// declared list itself, canonical already, so the engine and the
	// declared state share it. A target's stripe lock is held only for the
	// install and workers in different stripes never serialize.
	targets := sortedKeys(st.Permits)
	err = restoreParallel(len(targets), workers, func(i int) error {
		t := targets[i]
		p, ok := c.blockOwner(t)
		if !ok {
			return fmt.Errorf("core: restore: permit target %s is outside every provider's blocks", t)
		}
		set := st.Permits[t].Entries
		p.Permits.Install(t, set, uint64(len(set)))
		return nil
	})
	if err != nil {
		return err
	}

	// QoS quotas, potato profiles, groups, names.
	for _, key := range sortedKeys(st.Quotas) {
		prov, tenant, region, ok := intent.ParseQuotaKey(key)
		if !ok {
			return fmt.Errorf("core: restore: malformed quota key %q", key)
		}
		p, ok := idx.byName[prov]
		if !ok {
			return fmt.Errorf("core: restore: quota key %q references unknown provider", key)
		}
		if err := p.setQoS(tenant, region, st.Quotas[key]); err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
	}
	for _, key := range sortedKeys(st.Potato) {
		parts := strings.SplitN(key, "|", 2)
		if len(parts) != 2 {
			return fmt.Errorf("core: restore: malformed potato key %q", key)
		}
		p, ok := idx.byName[parts[0]]
		if !ok {
			return fmt.Errorf("core: restore: potato key %q references unknown provider", key)
		}
		// An unknown string falls back to hot, the provider default.
		policy, _ := qos.ParsePotatoPolicy(st.Potato[key])
		p.setPotato(parts[1], policy)
	}
	// Group and name maps are written directly: the declared maps are
	// authoritative here.
	c.nmMu.Lock()
	for key, members := range st.Groups {
		parts := strings.SplitN(key, "|", 2)
		if len(parts) != 2 {
			c.nmMu.Unlock()
			return fmt.Errorf("core: restore: malformed group key %q", key)
		}
		if c.groups[parts[0]] == nil {
			c.groups[parts[0]] = make(map[string][]EIP)
		}
		c.groups[parts[0]][parts[1]] = append([]EIP(nil), members...)
	}
	for key, target := range st.Names {
		parts := strings.SplitN(key, "|", 2)
		if len(parts) != 2 {
			c.nmMu.Unlock()
			return fmt.Errorf("core: restore: malformed name key %q", key)
		}
		if c.names[parts[0]] == nil {
			c.names[parts[0]] = make(map[string]addr.IP)
		}
		c.names[parts[0]][parts[1]] = target
	}
	c.nmMu.Unlock()
	return nil
}

// restoreParallel runs fn(0..n-1) across workers, stopping each worker
// at its first error. Which error surfaces when several workers fail is
// unspecified — any error aborts the whole restore.
func restoreParallel(n, workers int, fn func(i int) error) error {
	if workers <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[slot] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// StateDigest hashes the control plane's durable state in canonical
// order: providers (name-sorted), their endpoints, services and
// bindings, permit lists, quotas, potato profiles, pool cursors, and
// the tenants' groups and names. Runtime-only state —
// backend health bits, WRR counters, in-flight monitor state, permit
// list versions — is excluded, so a recovered world that converged to
// the same declared state digests identically to the world that never
// crashed (the E15 equivalence check).
//
// The walk is sectioned: each (provider, region) scope, each provider's
// SIP and policy planes, and the cloud plane hash independently, and
// the world digest combines the per-section sums, so two digests that
// differ can be narrowed to the section that does. Every call walks the
// whole world under the global gate; nothing on the serving path calls
// it.
func (c *Cloud) StateDigest() string {
	defer c.shards.lockGlobal()()
	h := sha256.New()
	for _, p := range c.pidx.Load().list {
		fmt.Fprintf(h, "provider %s\n", p.Name)
		for _, region := range p.Regions() {
			sum := sectionHash(func(w io.Writer) { writeRegionSection(w, p, region) })
			fmt.Fprintf(h, "region %s %x\n", region, sum)
		}
		fmt.Fprintf(h, "sip %x\n", sectionHash(func(w io.Writer) { writeSIPSection(w, p) }))
		fmt.Fprintf(h, "policy %x\n", sectionHash(func(w io.Writer) { writePolSection(w, p) }))
	}
	fmt.Fprintf(h, "cloud %x\n", sectionHash(c.writeCloudSection))
	return hex.EncodeToString(h.Sum(nil))
}

func sectionHash(fill func(io.Writer)) [sha256.Size]byte {
	h := sha256.New()
	fill(h)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// writeRegionSection renders one (provider, region) scope: the region
// block's endpoints, its installed permit lists, and its pool cursor.
// Both enumerations are single-stripe scans — region blocks are /16s,
// the stripe unit.
func writeRegionSection(w io.Writer, p *Provider, region string) {
	b := p.eipBlocks[region]
	eps := p.endpoints.Values(b.base)
	sort.Slice(eps, func(i, j int) bool { return eps[i].eip < eps[j].eip })
	for _, ep := range eps {
		fmt.Fprintf(w, "ep %s %s %s %s %g\n", ep.eip, ep.tenant, ep.node, ep.region, ep.egressCap)
	}
	writePermitLines(w, p, p.Permits.TargetsWithin(b.base))
	next, released := b.pool.Cursor()
	fmt.Fprintf(w, "pool %s %s %v\n", region, next, released)
}

// writeSIPSection renders a provider's SIP plane: services and their
// bindings, SIP permit lists, and the SIP pool cursor.
func writeSIPSection(w io.Writer, p *Provider) {
	svcs := p.services.All()
	sort.Slice(svcs, func(i, j int) bool { return svcs[i].sip < svcs[j].sip })
	for _, svc := range svcs {
		fmt.Fprintf(w, "svc %s %s\n", svc.sip, svc.tenant)
		for _, be := range sortedBackends(svc.balancer) {
			fmt.Fprintf(w, "bind %s %d\n", be.EIP, be.Weight)
		}
	}
	writePermitLines(w, p, p.Permits.TargetsWithin(p.cfg.SIPBase))
	next, released := p.sipBlock.Cursor()
	fmt.Fprintf(w, "sippool %s %v\n", next, released)
}

// writePermitLines keeps the digest's pinned entry order, which is older
// than the canonical one: host (/32) entries, then the shorter prefixes.
func writePermitLines(w io.Writer, p *Provider, targets []addr.IP) {
	for _, t := range targets {
		fmt.Fprintf(w, "permit %s", t)
		entries := p.Permits.EntriesOf(t)
		for _, hosts := range []bool{true, false} {
			for _, e := range entries {
				if (e.Len == 32) == hosts {
					fmt.Fprintf(w, " %s", e)
				}
			}
		}
		fmt.Fprintln(w)
	}
}

// writePolSection renders a provider's policy plane: quotas and potato
// profiles.
func writePolSection(w io.Writer, p *Provider) {
	p.polMu.RLock()
	for _, tenant := range sortedKeys(p.quotas) {
		for _, region := range sortedKeys(p.quotas[tenant]) {
			tq := p.quotas[tenant][region]
			tq.mu.Lock()
			q := tq.quota
			tq.mu.Unlock()
			fmt.Fprintf(w, "qos %s %s %g\n", tenant, region, q)
		}
	}
	for _, tenant := range sortedKeys(p.potato) {
		fmt.Fprintf(w, "potato %s %s\n", tenant, p.potato[tenant])
	}
	p.polMu.RUnlock()
}

// writeCloudSection renders the cloud plane: cross-provider groups and
// names.
func (c *Cloud) writeCloudSection(w io.Writer) {
	c.nmMu.RLock()
	for _, tenant := range sortedKeys(c.groups) {
		for _, name := range sortedKeys(c.groups[tenant]) {
			fmt.Fprintf(w, "cgroup %s %s %v\n", tenant, name, c.groups[tenant][name])
		}
	}
	for _, tenant := range sortedKeys(c.names) {
		for _, name := range sortedKeys(c.names[tenant]) {
			fmt.Fprintf(w, "name %s %s %s\n", tenant, name, c.names[tenant][name])
		}
	}
	c.nmMu.RUnlock()
}

// sortedBackends returns a balancer's backends ordered by EIP.
func sortedBackends(bal *lb.Balancer) []*lb.Backend {
	bes := bal.Backends()
	for i := 1; i < len(bes); i++ {
		for j := i; j > 0 && bes[j].EIP < bes[j-1].EIP; j-- {
			bes[j], bes[j-1] = bes[j-1], bes[j]
		}
	}
	return bes
}

// Drift injection: chaos hooks that corrupt the simulated dataplane
// without touching declared state, exactly what a lost update or a
// bad rollout would do in a real fleet. The reconciler must find and
// repair every one. None of these record intent — that is the point.
// Each hook deliberately leaves the reconciler's dirty sets alone: the
// anti-entropy rotation must find hook-injected drift on its own.

// DriftWipePermit drops target's installed permit list from its owning
// provider's enforcement engine, leaving the declared list intact.
func (c *Cloud) DriftWipePermit(target addr.IP) bool {
	p, ok := c.blockOwner(target)
	if !ok {
		return false
	}
	p.Permits.Drop(target)
	return true
}

// DriftUnbind removes a backend from a SIP's balancer behind the
// declared bindings' back.
func (c *Cloud) DriftUnbind(sip SIP, eip EIP) bool {
	p, ok := c.providerOfAddr(sip)
	if !ok {
		return false
	}
	svc, ok := p.services.Get(sip)
	if !ok {
		return false
	}
	return svc.balancer.Unbind(eip) == nil
}

// DriftZeroQuota zeroes a (tenant, region) egress limiter without
// touching the declared quota.
func (c *Cloud) DriftZeroQuota(provider, tenant, region string) bool {
	p, ok := c.Provider(provider)
	if !ok {
		return false
	}
	tq, ok := p.quotaOf(tenant, region)
	if !ok {
		return false
	}
	tq.mu.Lock()
	tq.quota = 0
	tq.limiter.SetQuota(0)
	tq.mu.Unlock()
	return true
}
