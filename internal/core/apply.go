// The verb path. Every Table-2 mutation — from the Go facade, a
// single-verb HTTP route, or one op of a /v1/batch — is an intent.Op,
// and Cloud.route is the one place an op is routed to its owning
// provider and shard. Cloud.Apply times, locks, runs and journals one
// op; ApplyBatch (batch.go) plans every op's shard with route, takes
// them all at once, and runs each op's body under them.
// A verb is defined by its case in that switch; DESIGN.md "Mutation
// plane" carries the table. A verb applies and journals under one lock,
// so whatever it touched is converged when it returns, accepted or
// refused: it leaves the reconciler nothing to re-check.
package core

import (
	"fmt"
	"math"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/qos"
	"declnet/internal/slo"
	"declnet/internal/topo"
)

// Apply runs one mutation for the tenant: it resolves the owning
// provider and (tenant, region) shard, takes that shard's write lock
// (bind also its EIP's: Cloud.eipShard), applies the verb, and — under
// the same lock, so journal order equals apply order within a shard —
// records the op in the intent store. A released address returns to its
// pool only after that (Cloud.free), so no re-grant of it can be
// journaled ahead of its release. It returns the op's Addr: the granted
// address for request_eip and request_sip.
//
// The caller fills the verb's operands; Apply completes what the
// provider derives (request_eip's Provider and Region, set_permit's
// Provider, the granted Addr), so the applied op is the journal op.
//
// A tenant name intent's composite keys cannot carry is refused before
// anything runs (intent.CheckTenant).
func (c *Cloud) Apply(tenant string, op intent.Op) (addr.IP, error) {
	if err := intent.CheckTenant(tenant); err != nil {
		return op.Addr, err
	}
	k, verb, p, run, err := c.route(tenant, &op)
	if err != nil {
		return op.Addr, err
	}
	// The lock wait and the journal append are stages of the verb's
	// span, so a slow write in /v1/debug/flight says which of the two it
	// spent its time in.
	sop := c.slo.Begin(verb, tenant, k.Region)
	stg := sop.StageStart()
	var unlock func()
	if ek, ok := c.eipShard(tenant, &op); ok {
		unlock = c.shards.lockShards([]ShardKey{k, ek})
	} else {
		unlock = c.shards.lockShard(k)
	}
	sop.StageEnd(stg, "shard_wait")
	defer unlock()
	op, err = run(c, p, tenant, op)
	if err == nil && c.rec != nil {
		stg = sop.StageStart()
		c.rec.Record(tenant, op)
		sop.StageEnd(stg, "journal")
	}
	if err == nil && releases(op.Verb) {
		err = c.free(op.Addr)
	}
	sop.End(err)
	if releases(op.Verb) {
		// End records into the tenant's SLO shard after the release may
		// have evicted it (last address gone); a zero-delta notify
		// re-sweeps so a churned tenant leaves no orphan shard behind.
		c.tenantDelta(tenant, 0)
	}
	return op.Addr, err
}

// named routes a provider-addressed verb: the provider by name and the
// tenant's shard for region there ("" = the provider-wide shard).
func (c *Cloud) named(tenant, provider, region string) (*Provider, ShardKey, error) {
	p, ok := c.Provider(provider)
	if !ok {
		return nil, ShardKey{Tenant: tenant}, fmt.Errorf("core: unknown provider %q", provider)
	}
	return p, p.regionShardKey(tenant, region), nil
}

// owner routes an address-targeted verb: the provider that granted a
// and the tenant's shard a falls in. The shard comes from the static
// block table, so it is right even when the error says a is not
// (yet, or any more) granted.
func (c *Cloud) owner(tenant string, a addr.IP) (*Provider, ShardKey, error) {
	k := c.shardKeyOf(tenant, a)
	p, ok := c.providerOfAddr(a)
	if !ok {
		return nil, k, fmt.Errorf("core: %s is not a granted address", a)
	}
	return p, k, nil
}

// A verbBody applies a routed op at its owning provider p (nil for a
// cloud-level verb) and returns the op completed with what it derives
// (set_permit's Provider and list, a grant's Addr, the endpoint entry
// request_eip and set_vm_egress install). Bodies capture
// nothing and take the op by value, so routing and running a verb
// allocate nothing: a closure returned from route, or an op passed by
// pointer through a func value, would be moved to the heap.
type verbBody func(c *Cloud, p *Provider, tenant string, op intent.Op) (intent.Op, error)

// route is the one verb table. For op it names the shard the verb
// locks, the SLO verb it is timed as, the owning provider and the body
// that applies it, completing what the provider derives from the
// operands (request_eip's Provider and Region). It runs nothing: Apply
// runs the body under the shard's lock, and ApplyBatch plans every op's
// shard with route and runs the bodies under the locks it holds.
//
// The shard key is static: it follows from the topology's node table
// and the address block carving alone, never from which addresses are
// granted right now. So it is valid even alongside a routing error, and
// ApplyBatch can plan every op's key — with a stand-in address for a
// "$i" operand whose grant has not happened yet — before it takes a
// single lock (Cloud.planKey, which for an address-targeted verb reads
// only the target's block).
func (c *Cloud) route(tenant string, op *intent.Op) (k ShardKey, verb slo.Verb, p *Provider, run verbBody, err error) {
	k = ShardKey{Tenant: tenant} // cloud-level verbs: the tenant's region-less shard
	if a, ok := target(op); ok {
		p, k, err = c.owner(tenant, a)
	}
	switch op.Verb {
	case intent.OpRequestEIP:
		n, ok := c.G.Node(topo.NodeID(op.VM))
		if !ok {
			return k, verb, nil, nil, fmt.Errorf("core: unknown VM %q", op.VM)
		}
		if op.Provider == "" {
			op.Provider = n.Provider
		}
		// The topology's own ID string stands for the VM from here on, in
		// the journal op and the endpoint alike: the decoded request's
		// copy is not retained.
		op.VM, op.Region = string(n.ID), n.Region
		p, k, err = c.named(tenant, op.Provider, n.Region)
		verb, run = slo.VerbGrant, func(c *Cloud, p *Provider, tenant string, op intent.Op) (_ intent.Op, err error) {
			n, _ := c.G.Node(topo.NodeID(op.VM))
			op.Addr, op.Endpoint, err = p.requestEIP(tenant, n)
			return op, err
		}
	case intent.OpReleaseEIP:
		verb, run = slo.VerbGrant, func(_ *Cloud, p *Provider, tenant string, op intent.Op) (intent.Op, error) {
			return op, p.releaseEIP(tenant, op.Addr)
		}
	case intent.OpRequestSIP:
		p, k, err = c.named(tenant, op.Provider, "")
		verb, run = slo.VerbGrant, func(_ *Cloud, p *Provider, tenant string, op intent.Op) (_ intent.Op, err error) {
			op.Addr, err = p.requestSIP(tenant)
			return op, err
		}
	case intent.OpReleaseSIP:
		verb, run = slo.VerbGrant, func(_ *Cloud, p *Provider, tenant string, op intent.Op) (intent.Op, error) {
			return op, p.releaseSIP(tenant, op.Addr)
		}
	case intent.OpBind:
		verb, run = slo.VerbBind, func(_ *Cloud, p *Provider, tenant string, op intent.Op) (intent.Op, error) {
			return op, p.bind(tenant, op.EIP, op.SIP, op.Weight)
		}
	case intent.OpUnbind:
		verb, run = slo.VerbBind, func(_ *Cloud, p *Provider, tenant string, op intent.Op) (intent.Op, error) {
			return op, p.unbind(tenant, op.EIP, op.SIP)
		}
	case intent.OpSetPermit:
		verb, run = slo.VerbPermit, func(_ *Cloud, p *Provider, tenant string, op intent.Op) (intent.Op, error) {
			op.Provider = p.Name
			err := p.setPermitList(tenant, &op)
			return op, err
		}
	case intent.OpPermit, intent.OpRevoke:
		verb, run = slo.VerbPermit, func(_ *Cloud, p *Provider, tenant string, op intent.Op) (intent.Op, error) {
			err := p.permitEntries(tenant, &op)
			return op, err
		}
	case intent.OpSetQoS:
		p, k, err = c.named(tenant, op.Provider, op.Region)
		verb, run = slo.VerbQoS, func(_ *Cloud, p *Provider, tenant string, op intent.Op) (intent.Op, error) {
			if err := checkRate(op.Bps); err != nil {
				return op, err
			}
			return op, p.setQoS(tenant, op.Region, op.Bps)
		}
	case intent.OpSetPotato:
		p, k, err = c.named(tenant, op.Provider, "")
		verb, run = slo.VerbQoS, func(_ *Cloud, p *Provider, tenant string, op intent.Op) (intent.Op, error) {
			policy, err := qos.ParsePotatoPolicy(op.Policy)
			if err == nil {
				p.setPotato(tenant, policy)
			}
			return op, err
		}
	case intent.OpSetVMEgress:
		verb, run = slo.VerbQoS, func(_ *Cloud, p *Provider, tenant string, op intent.Op) (_ intent.Op, err error) {
			if err := checkRate(op.Bps); err != nil {
				return op, err
			}
			op.Endpoint, err = p.setVMEgressCap(tenant, op.EIP, op.Bps)
			return op, err
		}
	case intent.OpCreateGroup:
		if op.Provider != "" {
			return k, verb, nil, nil, fmt.Errorf("core: create_group is tenant-wide; provider %q given", op.Provider)
		}
		verb, run = slo.VerbBind, func(c *Cloud, _ *Provider, tenant string, op intent.Op) (intent.Op, error) {
			return op, c.createGroup(tenant, op.Name, op.Members)
		}
	case intent.OpRegisterName:
		verb, run = slo.VerbBind, func(c *Cloud, _ *Provider, tenant string, op intent.Op) (intent.Op, error) {
			return op, c.registerName(tenant, op.Name, op.Addr)
		}
	case intent.OpUnregisterName:
		verb, run = slo.VerbBind, func(c *Cloud, _ *Provider, tenant string, op intent.Op) (intent.Op, error) {
			return op, c.unregisterName(tenant, op.Name)
		}
	default:
		err = fmt.Errorf("core: unknown verb %q", op.Verb)
	}
	return k, verb, p, run, err
}

// target is the address an address-targeted verb is routed by: the
// provider that granted it runs the verb, and its static block names the
// shard. It reports false for a verb routed by name.
func target(op *intent.Op) (addr.IP, bool) {
	switch op.Verb {
	case intent.OpReleaseEIP, intent.OpReleaseSIP:
		return op.Addr, true
	case intent.OpBind, intent.OpUnbind:
		return op.SIP, true
	case intent.OpSetPermit, intent.OpPermit, intent.OpRevoke:
		return op.Target, true
	case intent.OpSetVMEgress:
		return op.EIP, true
	}
	return 0, false
}

// eipShard names the one second shard a verb write-locks: bind's EIP's.
// bind checks that the EIP is the tenant's and then installs it in the
// SIP's balancer, while release_eip runs under the EIP's shard; holding
// both keeps a release from landing between the check and the install,
// which would leave a released address bound, live and in the journal.
func (c *Cloud) eipShard(tenant string, op *intent.Op) (ShardKey, bool) {
	if op.Verb != intent.OpBind {
		return ShardKey{}, false
	}
	return c.shardKeyOf(tenant, op.EIP), true
}

// checkRate refuses a set_qos or set_vm_egress bandwidth that is negative,
// NaN or infinite; zero is a rate (no reservation, or the provider's
// default VM cap). Checked in apply, not in setQoS: recovery and the
// quota repair share that body, and a store holding such a quota must
// open.
func checkRate(bps float64) error {
	if bps < 0 || math.IsNaN(bps) || math.IsInf(bps, 0) {
		return fmt.Errorf("core: bandwidth %g bit/s is not a finite, non-negative rate", bps)
	}
	return nil
}
