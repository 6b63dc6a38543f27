// The verb path. Every Table-2 mutation — from the Go facade, a
// single-verb HTTP route, or one op of a /v1/batch — is an intent.Op,
// and Cloud.apply is the one place an op is routed to its owning
// provider and shard, timed, locked, applied and journaled. ApplyBatch
// (batch.go) asks the same switch which shards its ops will lock, takes
// them all at once, and runs each op through it with the lock elided.
// A verb is defined by its case in that switch (plus its dirty marks in
// Cloud.noteRecorded); DESIGN.md "Mutation plane" carries the table.
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
// records the op in the intent store. It returns the op's Addr: the
// granted address for request_eip and request_sip.
//
// The caller fills the verb's operands; Apply completes what the
// provider derives (request_eip's Provider and Region, set_permit's
// Provider, the granted Addr), so the applied op is the journal op.
func (c *Cloud) Apply(tenant string, op intent.Op) (addr.IP, error) {
	_, err := c.apply(tenant, &op, applyLocked)
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

// applyMode says how much of a verb's path apply runs.
type applyMode int

const (
	// applyLocked is a single verb: timed, its shard locked, run,
	// journaled.
	applyLocked applyMode = iota
	// applyHeld is one op of a running batch: ApplyBatch holds the shard
	// (with every other shard of the batch) and times and journals the
	// batch itself.
	applyHeld
	// applyPlan runs nothing: apply only names the shard the op locks.
	applyPlan
)

// apply is Apply on a caller-owned op; its switch is the one verb
// table. For op it names the shard the verb locks, the SLO verb it is
// timed as, and the body that applies it, completing what the provider
// derives from the operands (request_eip's Provider and Region) — the
// body completes the rest (set_permit's Provider, a grant's Addr).
//
// The shard key is static: it follows from the topology's node table
// and the address block carving alone, never from which addresses are
// granted right now. So it is valid even alongside a routing error, and
// ApplyBatch can plan every op's key — with a stand-in address for a
// "$i" operand whose grant has not happened yet — before it takes a
// single lock. The lock wait and the journal append are stages of a
// single verb's span, so a slow write in /v1/debug/flight says which of
// the two it spent its time in.
func (c *Cloud) apply(tenant string, op *intent.Op, mode applyMode) (k ShardKey, err error) {
	var (
		p    *Provider
		verb slo.Verb
		run  func() error
	)
	k = ShardKey{Tenant: tenant} // cloud-level verbs: the tenant's region-less shard
	switch op.Verb {
	case intent.OpRequestEIP:
		n, ok := c.G.Node(topo.NodeID(op.VM))
		if !ok {
			return k, fmt.Errorf("core: unknown VM %q", op.VM)
		}
		if op.Provider == "" {
			op.Provider = n.Provider
		}
		// The topology's own ID string stands for the VM from here on, in
		// the journal op and the endpoint alike: the decoded request's
		// copy is not retained.
		op.VM, op.Region = string(n.ID), n.Region
		p, k, err = c.named(tenant, op.Provider, n.Region)
		verb, run = slo.VerbGrant, func() (err error) {
			op.Addr, err = p.requestEIP(tenant, n)
			return err
		}
	case intent.OpReleaseEIP:
		p, k, err = c.owner(tenant, op.Addr)
		verb, run = slo.VerbGrant, func() error { return p.releaseEIP(tenant, op.Addr) }
	case intent.OpRequestSIP:
		p, k, err = c.named(tenant, op.Provider, "")
		verb, run = slo.VerbGrant, func() (err error) {
			op.Addr, err = p.requestSIP(tenant)
			return err
		}
	case intent.OpReleaseSIP:
		p, k, err = c.owner(tenant, op.Addr)
		verb, run = slo.VerbGrant, func() error { return p.releaseSIP(tenant, op.Addr) }
	case intent.OpBind:
		p, k, err = c.owner(tenant, op.SIP)
		verb, run = slo.VerbBind, func() error { return p.bind(tenant, op.EIP, op.SIP, op.Weight) }
	case intent.OpUnbind:
		p, k, err = c.owner(tenant, op.SIP)
		verb, run = slo.VerbBind, func() error { return p.unbind(tenant, op.EIP, op.SIP) }
	case intent.OpSetPermit:
		p, k, err = c.owner(tenant, op.Target)
		verb, run = slo.VerbPermit, func() error {
			op.Provider = p.Name
			return p.setPermitList(tenant, op)
		}
	case intent.OpPermit, intent.OpRevoke:
		p, k, err = c.owner(tenant, op.Target)
		verb, run = slo.VerbPermit, func() error {
			return p.permitEntries(tenant, op)
		}
	case intent.OpSetQoS:
		p, k, err = c.named(tenant, op.Provider, op.Region)
		verb, run = slo.VerbQoS, func() error {
			if err := checkRate(op.Bps); err != nil {
				return err
			}
			return p.setQoS(tenant, op.Region, op.Bps)
		}
	case intent.OpSetPotato:
		p, k, err = c.named(tenant, op.Provider, "")
		verb, run = slo.VerbQoS, func() error {
			policy, err := qos.ParsePotatoPolicy(op.Policy)
			if err == nil {
				p.setPotato(tenant, policy)
			}
			return err
		}
	case intent.OpSetVMEgress:
		p, k, err = c.owner(tenant, op.EIP)
		verb, run = slo.VerbQoS, func() error {
			if err := checkRate(op.Bps); err != nil {
				return err
			}
			return p.setVMEgressCap(tenant, op.EIP, op.Bps)
		}
	case intent.OpCreateGroup:
		if op.Provider != "" {
			return k, fmt.Errorf("core: create_group is tenant-wide; provider %q given", op.Provider)
		}
		verb, run = slo.VerbBind, func() error { return c.createGroup(tenant, op.Name, op.Members) }
	case intent.OpRegisterName:
		verb, run = slo.VerbBind, func() error { return c.registerName(tenant, op.Name, op.Addr) }
	case intent.OpUnregisterName:
		verb, run = slo.VerbBind, func() error { return c.unregisterName(tenant, op.Name) }
	default:
		err = fmt.Errorf("core: unknown verb %q", op.Verb)
	}
	if err != nil || mode == applyPlan {
		return k, err
	}
	if mode == applyHeld {
		return k, run()
	}
	sop := c.slo.Begin(verb, tenant, k.Region)
	stg := sop.StageStart()
	var unlock func()
	if ek, ok := c.eipShard(tenant, op); ok {
		unlock = c.shards.lockShards([]ShardKey{k, ek})
	} else {
		unlock = c.shards.lockShard(k)
	}
	sop.StageEnd(stg, "shard_wait")
	defer unlock()
	err = run()
	if err == nil && c.rec != nil {
		stg = sop.StageStart()
		c.rec.Record(tenant, *op)
		c.noteRecorded(tenant, *op)
		sop.StageEnd(stg, "journal")
	}
	sop.End(err)
	if op.Verb == intent.OpReleaseEIP || op.Verb == intent.OpReleaseSIP {
		// End records into the tenant's SLO shard after the release may
		// have evicted it (last address gone); a zero-delta notify
		// re-sweeps so a churned tenant leaves no orphan shard behind.
		c.tenantDelta(tenant, 0)
	}
	return k, err
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
