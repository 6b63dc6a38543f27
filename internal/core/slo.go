// SLO plane wiring: attaching a slo.Plane to a Cloud, tenant-lifetime
// refcounting for eviction, and the breach → decision-trace bridge.
//
// The plane itself lives in internal/slo and is verb-agnostic; this
// file is the only place core knows about it. EnableSLO swaps the plane
// pointer under the shard set's global gate (Cloud.Exclusive) so the next
// verb sees it, and it hooks the plane's breach callback into the
// decision trace so a noisy-neighbor verdict shows up in `declnetctl
// explain` output with a full cause chain.
package core

import (
	"declnet/internal/obs"
	"declnet/internal/slo"
)

// EnableSLO attaches (or detaches, with nil) the latency-accounting
// plane. Instrumentation is nil-safe throughout, so a Cloud without a
// plane pays only a nil check per verb.
func (c *Cloud) EnableSLO(p *slo.Plane) {
	c.Exclusive(func() { c.slo = p })
	if p != nil {
		p.OnBreach(func(tenant, detail, cause string) {
			c.traceEvent(tenant, obs.Decision{Kind: obs.SLOBreach, Verdict: obs.Degraded, Detail: detail, Cause: cause})
		})
	}
}

// SLO returns the attached plane (nil when disabled).
func (c *Cloud) SLO() *slo.Plane { return c.slo }

// tenantDelta is the provider → cloud tenant-lifetime hook: providers
// report +1 per address granted and -1 per address released. When a
// tenant's count reaches zero it holds no addresses anywhere, so its
// per-tenant observability state — decision-trace ring and SLO shard
// histograms — is evicted. Without this, rings for churned tenants
// accumulate forever (the tracer's rings map only ever grew).
//
// A zero delta is a sweep: Cloud.apply re-notifies after a release's
// op.End, because End records the release's own service time after the
// body evicted the tenant and would otherwise respawn one orphan shard
// per churned tenant.
func (c *Cloud) tenantDelta(tenant string, delta int) {
	c.refMu.Lock()
	n := c.tenantRefs[tenant] + delta
	if n <= 0 {
		delete(c.tenantRefs, tenant)
	} else {
		c.tenantRefs[tenant] = n
	}
	c.refMu.Unlock()
	if n <= 0 {
		if c.trace != nil {
			c.trace.Drop(tenant)
		}
		c.slo.DropTenant(tenant)
	}
}

// TenantRefs reports the live address count for a tenant (0 when fully
// released). Test hook for the eviction path.
func (c *Cloud) TenantRefs(tenant string) int {
	c.refMu.Lock()
	defer c.refMu.Unlock()
	return c.tenantRefs[tenant]
}
