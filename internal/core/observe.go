package core

import (
	"fmt"
	"strings"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/metrics"
	"declnet/internal/obs"
	"declnet/internal/topo"
)

// This file is the provider side of the paper's §6 diagnosis question
// ("tenants lack visibility — the provider must supply it"): wiring the
// obs.Tracer and metrics.Registry into the control plane, and Explain —
// a read-only replay of the Connect datapath that returns the ordered
// verdict chain for a (tenant, src, dst) probe. Explain is declnet's
// answer to traceroute plus "why is my security group blocking this":
// it takes no decision, mutates nothing (no smooth-WRR counter advances,
// no Lookups increment), and names the injected ground-truth cause.

// EnableObservability attaches a decision tracer and a metrics registry
// to the cloud, where every provider reads them. Either may be nil (tracing
// without metrics, or vice versa); instrumented paths are nil-safe, so
// the disabled arm of experiment E12 pays only nil checks. It is a set-up
// step: call it before the cloud is shared; a later call replaces both
// sinks. The registry gets every cloud-wide instrument here: the connect
// counters, each provider's gauges, and the data plane's own when it has
// any (a RegisterMetrics method).
func (c *Cloud) EnableObservability(tr *obs.Tracer, reg *metrics.Registry) {
	c.trace = tr
	c.reg = reg
	// Cached instrument handles: hot paths must not pay the registry's
	// get-or-create lock per connection. Nil registry hands out nil
	// instruments whose methods are no-ops.
	c.mConnects = reg.Counter("declnet_connects_total",
		"Connect attempts by outcome.", metrics.L("outcome", "ok"))
	c.mConnectsDenied = reg.Counter("declnet_connects_total",
		"Connect attempts by outcome.", metrics.L("outcome", "denied"))
	c.mConnectsErr = reg.Counter("declnet_connects_total",
		"Connect attempts by outcome.", metrics.L("outcome", "error"))
	c.mProbes = reg.Counter("declnet_probes_total", "Probe calls.")
	c.mExplains = reg.Counter("declnet_explains_total", "Explain replays.")
	if reg == nil {
		return
	}
	if g, ok := c.plane.(interface{ RegisterMetrics(*metrics.Registry) }); ok {
		g.RegisterMetrics(reg)
	}
	for _, p := range c.pidx.Load().list {
		c.registerProviderMetrics(p.Name, p)
	}
}

// Tracer returns the decision tracer, nil until EnableObservability.
func (c *Cloud) Tracer() *obs.Tracer { return c.trace }

// Registry returns the metrics registry, nil until EnableObservability.
func (c *Cloud) Registry() *metrics.Registry { return c.reg }

// registerProviderMetrics samples one provider's control-plane scale.
func (c *Cloud) registerProviderMetrics(name string, p *Provider) {
	l := metrics.L("provider", name)
	c.reg.GaugeFunc("declnet_endpoints",
		"Granted EIPs.", func() float64 { return float64(p.EndpointCount()) }, l)
	c.reg.GaugeFunc("declnet_services",
		"Granted SIPs.", func() float64 { return float64(p.ServiceCount()) }, l)
	c.reg.GaugeFunc("declnet_permit_entries",
		"Total permit-list entries.", func() float64 { return float64(p.Permits.TotalEntries()) }, l)
	c.reg.GaugeFunc("declnet_permit_lookups_total",
		"Permit admission checks.", func() float64 { return float64(p.Permits.Lookups.Load()) }, l)
	c.reg.GaugeFunc("declnet_permit_updates_total",
		"Permit-list mutations.", func() float64 { return float64(p.Permits.Updates.Load()) }, l)
}

// TraceEvent records one decision for the tenant, stamped with the
// virtual time, when tracing is on.
func (c *Cloud) TraceEvent(tenant string, d obs.Decision) {
	if c.trace == nil {
		return
	}
	d.At = c.plane.Now()
	c.trace.Record(tenant, d)
}

// ExplainStep is one stage of the replayed datapath decision.
type ExplainStep struct {
	// Stage is the datapath stage: source, admission, balancer,
	// destination, path, qos.
	Stage string `json:"stage"`
	// Verdict is "ok", "deny", "fail", or "info".
	Verdict string `json:"verdict"`
	Detail  string `json:"detail,omitempty"`
	// Cause is the cause chain for negative verdicts (obs.Chain format).
	Cause string `json:"cause,omitempty"`
}

// Explanation is the ordered verdict chain for one (tenant, src, dst).
type Explanation struct {
	Tenant string `json:"tenant"`
	Src    string `json:"src"`
	Dst    string `json:"dst"`
	// Reachable is the overall replay verdict: would Connect admit and
	// route this flow right now?
	Reachable bool `json:"reachable"`
	// RootCause is the first failing stage's cause chain, "" when
	// reachable — the string E12 scores against the injected fault.
	RootCause string        `json:"root_cause,omitempty"`
	Steps     []ExplainStep `json:"steps"`
}

// failStep appends a failing stage and latches the first root cause.
func (ex *Explanation) failStep(stage, detail, cause string) {
	ex.Steps = append(ex.Steps, ExplainStep{Stage: stage, Verdict: "fail", Detail: detail, Cause: cause})
	if ex.RootCause == "" {
		ex.RootCause = cause
	}
	ex.Reachable = false
}

// explain replays the Connect datapath for a hypothetical flow from a
// tenant's EIP to dst (EIP or SIP), without taking any decision: the
// balancer is previewed, not advanced; the permit engine's lookup counter
// is untouched. Every stage appends a verdict, the first failure sets
// RootCause, and the whole replay is recorded as an obs.Explain event.
// Unknown or foreign addresses return an error (the API maps it to 404).
//
// Like Connect and Probe, Explain holds both endpoints' shard read locks
// (deterministic order), so a mutation storm in an unrelated shard never
// stalls a diagnosis.
func (c *Cloud) explain(tenant string, src EIP, dst addr.IP) (*Explanation, error) {
	defer c.shards.rlockShards(c.shardKeyOf(tenant, src), c.shardKeyOf(tenant, dst))()
	srcProv, ok := c.ProviderOf(src)
	if !ok {
		return nil, fmt.Errorf("core: unknown source EIP %s", src)
	}
	srcEp, err := c.owned(tenant, src)
	if err != nil {
		return nil, err
	}
	dstProv, ok := c.ProviderOf(dst)
	if !ok {
		return nil, fmt.Errorf("core: destination %s is not a granted address", dst)
	}
	c.mExplains.Inc()
	ex := &Explanation{
		Tenant: tenant, Src: src.String(), Dst: dst.String(),
		Reachable: true,
	}

	// Stage 1 — source: is the tenant's own VM even alive?
	srcNode := topo.NodeID(srcEp.VM)
	if cause := c.nodeCause(srcNode); cause != "" {
		ex.failStep("source", "vm="+srcEp.VM, cause)
	} else {
		ex.Steps = append(ex.Steps, ExplainStep{Stage: "source", Verdict: "ok",
			Detail: "vm=" + srcEp.VM})
	}

	// Stage 2 — admission: default-off permit check at the destination
	// provider, with the matched entry and propagation epoch as evidence.
	dec := dstProv.Permits.Explain(src, dst)
	switch {
	case dec.Allowed:
		ex.Steps = append(ex.Steps, ExplainStep{Stage: "admission", Verdict: "ok",
			Detail: fmt.Sprintf("entry=%s epoch=%d", dec.Matched, dec.Version)})
	default:
		cause := "permit-deny:" + dst.String()
		detail := fmt.Sprintf("entries=%d epoch=%d", dec.Entries, dec.Version)
		if !dec.HasList {
			cause = obs.Chain(cause, "no-permit-list")
			detail = "default-off, no permit list set"
		} else {
			cause = obs.Chain(cause, "src-not-in-permit-list")
		}
		// A deferred set_permit_list explains an unexpected deny better
		// than the list state does: the tenant already issued the update,
		// the enforcement point just can't hear it yet.
		if since, pending := c.plane.PendingPermit(dst); pending {
			cause = obs.Chain("permit-pending:"+dst.String(),
				fmt.Sprintf("deferred-since=%v", since))
			if nc := c.nodeCause(c.targetNode(dstProv, dst)); nc != "" {
				cause = obs.Chain(cause, nc)
			}
			detail = "update accepted, retrying against unreachable enforcement point"
		}
		ex.failStep("admission", detail, cause)
	}

	// Stage 3 — balancer, only when dst is a service address.
	dstEIP := dst
	if svc, isSIP := dstProv.services.Get(dst); isSIP {
		bal := svc.balancer
		healthy, total := bal.HealthyCount(), len(bal.Backends())
		if be, err := bal.Preview(); err == nil {
			dstEIP = be.EIP
			ex.Steps = append(ex.Steps, ExplainStep{Stage: "balancer", Verdict: "ok",
				Detail: fmt.Sprintf("backend=%s healthy=%d/%d", be.EIP, healthy, total)})
		} else {
			cause := "no-healthy-backend:" + dst.String()
			for _, be := range bal.Backends() {
				if node, ok := dstProv.Lookup(be.EIP); ok {
					if nc := c.nodeCause(node); nc != "" {
						cause = obs.Chain(cause, nc)
						break
					}
				}
			}
			ex.failStep("balancer", fmt.Sprintf("healthy=0/%d", total), cause)
			dstEIP = 0
		}
	}

	// Stage 4 — destination endpoint liveness.
	var dstNode topo.NodeID
	if dstEIP != 0 {
		if dstEp, ok := c.decl.Endpoint(dstEIP); ok {
			dstNode = topo.NodeID(dstEp.VM)
			if cause := c.nodeCause(dstNode); cause != "" {
				ex.failStep("destination", "vm="+string(dstNode), cause)
			} else {
				ex.Steps = append(ex.Steps, ExplainStep{Stage: "destination", Verdict: "ok",
					Detail: "vm=" + string(dstNode)})
			}
		}
	}

	// Stage 5 — path under the tenant's potato profile.
	policy := srcProv.potatoOf(tenant)
	if dstNode != "" {
		path, err := c.router.PathFor(policy, srcNode, dstNode)
		if err != nil {
			ex.failStep("path", fmt.Sprintf("policy=%v", policy),
				fmt.Sprintf("no-path:%v", policy))
		} else {
			down := ""
			for _, l := range path {
				if !l.Up() {
					down = "link-down:" + trimDir(l.ID)
					break
				}
			}
			detail := fmt.Sprintf("policy=%v hops=%d delay=%v", policy, len(path), path.Delay())
			if down != "" {
				ex.failStep("path", detail, down)
			} else {
				ex.Steps = append(ex.Steps, ExplainStep{Stage: "path", Verdict: "ok", Detail: detail})
			}
		}
	}

	// Stage 6 — qos: informational; throttling degrades, never blocks.
	qdetail := fmt.Sprintf("vm-cap=%.3gbps", vmCap(srcEp))
	declared, _ := c.decl.Quota(intent.QuotaKey(srcProv.Name, tenant, srcEp.Region))
	if bps, up, total := c.quota(srcProv, tenant, srcEp.Region, declared); bps > 0 {
		qdetail += fmt.Sprintf(" region-quota=%.3gbps enforcers-up=%d/%d", bps, up, total)
	}
	ex.Steps = append(ex.Steps, ExplainStep{Stage: "qos", Verdict: "info", Detail: qdetail})

	verdict := obs.Reachable
	if !ex.Reachable {
		verdict = obs.Unreachable
	}
	c.TraceEvent(tenant, obs.Decision{Kind: obs.Explain, Src: src, Dst: dst, Verdict: verdict, Cause: ex.RootCause})
	return ex, nil
}

// ResourceCounts summarizes one tenant's declarative footprint across all
// providers, for GET /v1/status.
type ResourceCounts struct {
	EIPs   int `json:"eips"`
	SIPs   int `json:"sips"`
	Quotas int `json:"quotas"`
	Groups int `json:"groups"`
}

// TenantResources aggregates per-tenant resource counts across providers,
// as declared.
func (c *Cloud) TenantResources() map[string]ResourceCounts {
	out := make(map[string]ResourceCounts)
	count := func(tenant string, add func(*ResourceCounts)) {
		rc := out[tenant]
		add(&rc)
		out[tenant] = rc
	}
	c.decl.Read(func(st *intent.State) {
		for key := range st.Groups {
			tenant, _, _ := strings.Cut(key, "|")
			count(tenant, func(rc *ResourceCounts) { rc.Groups++ })
		}
		for key := range st.Quotas {
			_, tenant, _, _ := intent.ParseQuotaKey(key)
			count(tenant, func(rc *ResourceCounts) { rc.Quotas++ })
		}
	})
	// The address tables are read outside the lock: a walk of the world
	// holds up no writer.
	c.decl.Endpoints().Each(func(ep *intent.Endpoint) { count(ep.Tenant, func(rc *ResourceCounts) { rc.EIPs++ }) })
	c.decl.Services().Each(func(svc *intent.Service) { count(svc.Tenant, func(rc *ResourceCounts) { rc.SIPs++ }) })
	return out
}

// quota is the (tenant, region) egress quota in force at p and its
// enforcement points up of all: the installed quota on a data plane that
// installs them, the declared one on a plane that does not.
func (c *Cloud) quota(p *Provider, tenant, region string, declared float64) (bps float64, up, total int) {
	if bps, up, total, ok := c.plane.Quota(p.Name, tenant, region); ok {
		return bps, up, total
	}
	return declared, 0, 0
}

// nodeCause renders a node's unreachability cause chain, "" when the node
// is reachable.
func (c *Cloud) nodeCause(id topo.NodeID) string {
	if id == "" || c.plane.Reachable(id) {
		return ""
	}
	causes := c.plane.Cause(id)
	if len(causes) == 0 {
		causes = []string{"unreachable:" + string(id)}
	}
	return obs.Chain(causes...)
}

// targetNode resolves the enforcement node behind a permit target, "" for
// SIPs (enforced at the always-on frontend).
func (c *Cloud) targetNode(p *Provider, target addr.IP) topo.NodeID {
	if ep, ok := c.decl.Endpoint(target); ok {
		return topo.NodeID(ep.VM)
	}
	return ""
}

// trimDir strips the direction suffix from a directed link ID, yielding
// the pair ID tenants know from the fault API.
func trimDir(id string) string {
	for _, suf := range []string{":fwd", ":rev"} {
		if len(id) > len(suf) && id[len(id)-len(suf):] == suf {
			return id[:len(id)-len(suf)]
		}
	}
	return id
}
