// Declared state and its durable tail: wiring between the control plane
// and internal/intent. A Cloud holds one declared world from NewCloud on
// (Cloud.decl, an intent.Log): every verb checks its ops against that
// State and folds them there, with or without a store, and the installed
// state — permit engines, balancers, limiters, pools — is derived from
// it. EnableIntent attaches a store as the declared world's durable tail;
// RestoreIntent installs a replayed State after a daemon restart and
// adopts it; StateDigest canonically hashes the live control-plane state
// so kill-and-restart equivalence is a string comparison. The Drift*
// methods are test/chaos hooks that corrupt the simulated dataplane
// behind the declared state's back, for the reconciler (reconcile.go) to
// find and repair.
package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/lb"
	"declnet/internal/qos"
)

// EnableIntent attaches the durable tail: l, with the declared world it
// replayed, becomes the cloud's declared world, and every mutation
// accepted from now on is journaled to it. Call it on a fresh cloud, or
// right after RestoreIntent(l.State()), so that what l declares is what
// the cloud installed. It is a set-up step: call it before the cloud is
// shared.
func (c *Cloud) EnableIntent(l *intent.Log) { c.decl = l }

// Intent returns the attached store, or nil before EnableIntent.
func (c *Cloud) Intent() *intent.Log {
	if c.decl.Dir() == "" {
		return nil
	}
	return c.decl
}

// RestoreIntent installs a replayed declared state and adopts it as the
// cloud's: services re-granted at their original addresses and their
// balancers re-bound, address pools rewound to their recorded cursors,
// permit lists re-installed, QoS and policy state re-applied. Endpoints,
// groups and names have nothing installed: the adopted state is their
// one copy. Call it once, on an otherwise-fresh Cloud built over the same
// world (the daemon compares the store's Meta stamps first), before
// EnableIntent — restoration itself must not re-journal — and before the
// cloud is shared: it takes no lock. It is one serial pass over each
// declared surface, in address order.
func (c *Cloud) RestoreIntent(st *intent.State) error {
	if st == nil {
		return nil
	}
	c.decl = intent.NewLog(st)

	idx := c.pidx.Load()
	// The addresses each pool holds, gathered while the endpoints and
	// services go in and handed to the pools once both are (Restore
	// rebuilds inUse wholesale).
	inUse := make(map[*addr.HostPool][]addr.IP)

	var err error
	st.Endpoints.Ascend(0, func(eip addr.IP, ep *intent.Endpoint) bool {
		p, ok := idx.byName[ep.Provider]
		if !ok {
			err = fmt.Errorf("core: restore: endpoint %s references unknown provider %q", eip, ep.Provider)
			return false
		}
		b, ok := p.eipBlocks[ep.Region]
		if !ok {
			err = fmt.Errorf("core: restore: endpoint %s references unknown region %q of provider %q", eip, ep.Region, ep.Provider)
			return false
		}
		inUse[b.pool] = append(inUse[b.pool], eip)
		c.tenantDelta(ep.Tenant, 1)
		// The declared set itself: the engine and the record share it.
		if ep.Permits != nil {
			p.Permits.Install(eip, ep.Permits, uint64(ep.Permits.Len()))
		}
		return true
	})
	if err != nil {
		return err
	}

	st.Services.Ascend(0, func(sip addr.IP, svc *intent.Service) bool {
		p, ok := idx.byName[svc.Provider]
		if !ok {
			err = fmt.Errorf("core: restore: service %s references unknown provider %q", sip, svc.Provider)
			return false
		}
		bal := lb.New(sip)
		for _, b := range svc.Binds {
			bal.Bind(b.EIP, b.Weight)
		}
		p.services.Put(sip, &service{sip: sip, balancer: bal})
		inUse[p.sipBlock] = append(inUse[p.sipBlock], sip)
		c.tenantDelta(svc.Tenant, 1)
		if svc.Permits != nil {
			p.Permits.Install(sip, svc.Permits, uint64(svc.Permits.Len()))
		}
		return true
	})
	if err != nil {
		return err
	}

	// A pool with no recorded cursor was never drawn from.
	for _, p := range idx.list {
		for region, b := range p.eipBlocks {
			if ps := st.EIPPools[intent.PoolKey(p.Name, region)]; ps != nil {
				b.pool.Restore(ps.Next, ps.Released, inUse[b.pool])
			}
		}
		if ps := st.SIPPools[p.Name]; ps != nil {
			p.sipBlock.Restore(ps.Next, ps.Released, inUse[p.sipBlock])
		}
	}

	// QoS quotas and potato profiles. Quotas go in sorted
	// order: a new limiter arms its period on the data plane.
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
// whole world and takes no lock, so call it on a quiesced world: no verb,
// sweep or engine step in flight. Nothing on the serving path calls it.
func (c *Cloud) StateDigest() string {
	h := sha256.New()
	c.decl.Read(func(st *intent.State) {
		for _, p := range c.pidx.Load().list {
			fmt.Fprintf(h, "provider %s\n", p.Name)
			for _, region := range p.Regions() {
				sum := sectionHash(func(w io.Writer) { writeRegionSection(w, st, p, region) })
				fmt.Fprintf(h, "region %s %x\n", region, sum)
			}
			fmt.Fprintf(h, "sip %x\n", sectionHash(func(w io.Writer) { writeSIPSection(w, st, p) }))
			fmt.Fprintf(h, "policy %x\n", sectionHash(func(w io.Writer) { writePolSection(w, p) }))
		}
		fmt.Fprintf(h, "cloud %x\n", sectionHash(func(w io.Writer) { writeCloudSection(w, st) }))
	})
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
func writeRegionSection(w io.Writer, st *intent.State, p *Provider, region string) {
	b := p.eipBlocks[region]
	eips := st.Endpoints.Keys(b.base)
	slices.Sort(eips)
	for _, eip := range eips {
		ep, _ := st.Endpoints.Get(eip)
		fmt.Fprintf(w, "ep %s %s %s %s %g\n", eip, ep.Tenant, ep.VM, ep.Region, ep.EgressCap)
	}
	writePermitLines(w, p, p.Permits.TargetsWithin(b.base))
	next, released := b.pool.Cursor()
	fmt.Fprintf(w, "pool %s %s %v\n", region, next, released)
}

// writeSIPSection renders a provider's SIP plane: services and their
// bindings, SIP permit lists, and the SIP pool cursor.
func writeSIPSection(w io.Writer, st *intent.State, p *Provider) {
	svcs := p.services.All()
	sort.Slice(svcs, func(i, j int) bool { return svcs[i].sip < svcs[j].sip })
	for _, svc := range svcs {
		decl, _ := st.Services.Get(svc.sip)
		fmt.Fprintf(w, "svc %s %s\n", svc.sip, decl.Tenant)
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
// names, by tenant and then name.
func writeCloudSection(w io.Writer, st *intent.State) {
	for _, key := range tenantSorted(st.Groups) {
		tenant, name, _ := strings.Cut(key, "|")
		fmt.Fprintf(w, "cgroup %s %s %v\n", tenant, name, st.Groups[key])
	}
	for _, key := range tenantSorted(st.Names) {
		tenant, name, _ := strings.Cut(key, "|")
		fmt.Fprintf(w, "name %s %s %s\n", tenant, name, st.Names[key])
	}
}

// tenantSorted returns the GroupKeys of m ordered by tenant, then name.
func tenantSorted[V any](m map[string]V) []string {
	keys := sortedKeys(m)
	slices.SortFunc(keys, func(a, b string) int {
		at, an, _ := strings.Cut(a, "|")
		bt, bn, _ := strings.Cut(b, "|")
		return cmp.Or(strings.Compare(at, bt), strings.Compare(an, bn))
	})
	return keys
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
// No hook marks its target for the reconciler: the anti-entropy
// rotation must find hook-injected drift on its own.

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
	p, ok := c.ProviderOf(sip)
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
