// The verb path. Every Table-2 mutation — from the Go facade, a
// single-verb HTTP route, or an op of a /v1/batch — is an intent.Op,
// and Cloud.route is the one place an op is routed to its owning
// provider and shard. Cloud.apply is the one place ops run: it plans
// every op's shard with route and takes them all at once; under them it
// checks each op against the declared state (intent.State, the only copy
// of what tenants declared) with the rules journal replay applies
// (intent.Frame.Check), completes it from the topology and the state (the
// verb's declare), folds it there, journals the folded ops as one record,
// and installs each op's effect — permit engines, balancers — derived
// from what was folded, then hands the op to the data plane. Its two callers are Cloud.Apply (the Go
// facade) and ApplyBatch (batch.go, which the HTTP routes use).
// A verb is defined by its entry in the verb table; DESIGN.md "Mutation
// plane" carries the table. A verb applies and journals under one lock,
// so whatever it touched is converged when it returns, accepted or
// refused: it leaves the reconciler nothing to re-check.
package core

import (
	"fmt"
	"slices"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/lb"
	"declnet/internal/qos"
	"declnet/internal/slo"
	"declnet/internal/topo"
)

// Apply runs ops for the tenant, in order, through Cloud.apply, and
// returns the last op's Addr: the granted address when it is a
// request_eip or request_sip (zero on an error). The caller fills each
// verb's operands; Apply completes, in place, what the provider derives
// (request_eip's Provider and Region, set_permit's Provider, the granted
// Addr), so the applied ops are the journal ops. The first failure stops
// the run; the ops before it stay applied and journaled.
//
// A tenant name intent's composite keys cannot carry (intent.CheckTenant),
// or an op that breaks an operand rule (checkOperands), is refused
// before anything runs.
func (c *Cloud) Apply(tenant string, ops ...intent.Op) (addr.IP, error) {
	if err := intent.CheckTenant(tenant); err != nil {
		return 0, err
	}
	for i := range ops {
		if err := c.checkOperands(&ops[i]); err != nil {
			return 0, fmt.Errorf("core: %s: %w", ops[i].Verb, err)
		}
	}
	if n, err := c.apply(tenant, ops, nil); err != nil || n == 0 {
		return 0, err
	}
	return ops[len(ops)-1].Addr, nil
}

// backRef is a "$j" operand of a batch op: the address slot at holds,
// in ops[op], the address op j is granted. apply fills the slot with a
// stand-in while it plans and with the grant just before op runs.
type backRef struct {
	op, j int
	at    *addr.IP
}

// apply is the one apply loop. It plans each op's shard (Cloud.route;
// a grant's address, which a later op's backRef may name, is a stand-in
// from the block it will come from) and takes the write locks of exactly
// those shards (ShardSet.lockShards). Then, in one hold of the declared
// state's lock (intent.Frame), it runs each op in order: the frame checks
// it against the declared state (Frame.Check, the rules replay holds
// every journaled op to), the verb's declare completes it in place (a
// grant's address, set_permit's list), the state folds it, the verb's
// install derives the installed state from what was folded, and the data
// plane learns the op (DataPlane.Apply).
// The first refusal stops the run, leaving the refused op unfolded and
// nothing of it installed. The folded ops are journaled as one record
// under the same hold, so journal order equals fold order and no
// compaction sees half a frame. A grant's address comes from the
// declared pool (intent.State.NextGrant) and a release's goes back there
// in its fold, so no re-grant of it can be journaled ahead of its
// release. It returns how many ops applied and the first error. refs are
// in op order. When the journal fails the frame (intent.ErrFailed) the
// error is that, whatever the ops did: they are folded and installed but
// not durable, and the store takes no frame after it.
//
// A set_permit's set comes from the declared state (State.PermitSet),
// which holds one set per distinct entry list: every target that
// declares the same list — in this frame or any other — holds that one
// set.
//
// One op is timed as its own verb, more as one batch; the lock wait and
// the journal append are stages of the span, so a slow write in
// /v1/debug/flight says which of the two it spent its time in.
func (c *Cloud) apply(tenant string, ops []intent.Op, refs []backRef) (n int, err error) {
	verb, region := slo.VerbBatch, ""
	var kb [4]ShardKey // distinct: a batch names few shards, many times each
	keys := kb[:0]
	for i, r := 0, 0; i < len(ops); i++ {
		r = resolve(ops, refs, i, r)
		op := &ops[i]
		k, v, _, _ := c.route(tenant, op) // a routing error is the run's to report
		if len(ops) == 1 {
			verb, region = v.slo, k.Region
		}
		if !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
		if ek, ok := c.eipShard(tenant, op); ok && !slices.Contains(keys, ek) {
			keys = append(keys, ek)
		}
		if grants(op.Verb) {
			op.Addr = c.standIn(k)
		}
	}
	sop := c.slo.Begin(verb, tenant, region)
	stg := sop.StageStart()
	var hb [4]*shard
	held := c.shards.lockShards(keys, hb[:0])
	sop.StageEnd(stg, "shard_wait")
	defer c.shards.unlockShards(held)
	released := false
	rec := c.decl.Begin()
	err = c.decl.Failed() // a failed store takes no frame: every write answers its cause
	for r := 0; err == nil && n < len(ops); n++ {
		r = resolve(ops, refs, n, r)
		op := &ops[n]
		_, v, p, rerr := c.route(tenant, op)
		if a, ok := target(op); ok && rerr == nil {
			p, rerr = c.owner(a)
		}
		if rerr == nil {
			rerr = rec.Check(tenant, op)
		}
		if rerr == nil && v.declare != nil {
			*op, rerr = v.declare(c, p, rec.State(), tenant, *op)
		}
		if rerr == nil {
			rerr = rec.Fold(tenant, op)
		}
		if rerr != nil {
			err = rerr
			break
		}
		v.install(c, p, tenant, op)
		c.plane.Apply(tenant, op)
		released = released || releases(op.Verb)
	}
	stg = sop.StageStart()
	if _, jerr := rec.Record(tenant, ops[:n]...); jerr != nil {
		err = jerr // the folded ops are not durable: no caller may ack them
	}
	sop.StageEnd(stg, "journal")
	sop.End(err)
	if released {
		// End records into the tenant's SLO shard after a release may
		// have evicted it (last address gone); a zero-delta notify
		// re-sweeps so a churned tenant leaves no orphan shard behind.
		c.tenantDelta(tenant, 0)
	}
	return n, err
}

// resolve fills op i's back-references, refs[r] on, from the ops they
// name, and returns the index of the first reference of a later op.
func resolve(ops []intent.Op, refs []backRef, i, r int) int {
	for ; r < len(refs) && refs[r].op == i; r++ {
		*refs[r].at = ops[refs[r].j].Addr
	}
	return r
}

// standIn returns an address inside the block a grant locked under k
// will come from — the region's EIP block, or the provider's SIP block
// — for the plan to route a "$i" operand by. Zero when k names no block
// (the grant is going to fail).
func (c *Cloud) standIn(k ShardKey) addr.IP {
	for _, b := range c.pidx.Load().blocks {
		if b.shard == k.Region {
			return b.base.Addr
		}
	}
	return 0
}

// grants reports whether a verb's result is a granted address — what a
// "$i" back-reference may name and a BatchResult carries.
func grants(verb string) bool {
	return verb == intent.OpRequestEIP || verb == intent.OpRequestSIP
}

// releases reports whether a verb gives an address back.
func releases(verb string) bool {
	return verb == intent.OpReleaseEIP || verb == intent.OpReleaseSIP
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

// owner is the provider that granted an address-targeted verb's
// target, which runs the verb. apply asks under the shard locks, just
// before the op is declared: the answer depends on what is granted now.
func (c *Cloud) owner(a addr.IP) (*Provider, error) {
	p, ok := c.ProviderOf(a)
	if !ok {
		return nil, fmt.Errorf("core: %s is not a granted address", a)
	}
	return p, nil
}

// verb is one Table-2 verb: the SLO verb it is timed as, and its two
// halves, which run under the shard locks and the declared state's lock
// with the fold between them, after the frame has checked the op. declare
// completes op from what only core knows — the topology, the provider's
// address carving, the state's allocator — and refuses what depends on
// them (a VM's host, a region, a group to expand, a potato policy); a
// release also uninstalls there, before its record leaves the declared
// state, for the reconciler must never see an installed list on an
// undeclared address. A verb whose op is complete as given has no
// declare. install derives installed state from the folded op and cannot
// fail. p is the owning provider (nil for a cloud-level verb). Both
// capture nothing and declare takes the op by value, so routing and
// running a verb allocate nothing.
type verb struct {
	slo     slo.Verb
	declare func(c *Cloud, p *Provider, st *intent.State, tenant string, op intent.Op) (intent.Op, error)
	install func(c *Cloud, p *Provider, tenant string, op *intent.Op)
}

// nothing is the install of a verb whose whole effect is declared.
func nothing(*Cloud, *Provider, string, *intent.Op) {}

// verbs is the one verb table.
var verbs = map[string]*verb{
	intent.OpRequestEIP: {slo.VerbGrant,
		func(c *Cloud, p *Provider, st *intent.State, _ string, op intent.Op) (_ intent.Op, err error) {
			n, _ := c.G.Node(topo.NodeID(op.VM))
			blocks, err := p.checkHost(n)
			if err == nil {
				op.Addr, err = st.NextGrant(&op, blocks.base)
			}
			return op, err
		},
		func(c *Cloud, _ *Provider, tenant string, _ *intent.Op) { c.tenantDelta(tenant, 1) }},
	intent.OpReleaseEIP: {slo.VerbGrant,
		func(_ *Cloud, p *Provider, st *intent.State, _ string, op intent.Op) (intent.Op, error) {
			// The balancers it is bound to drain it now: the fold forgets them.
			for _, sip := range st.Bound(op.Addr) {
				if svc, ok := p.services.Get(sip); ok {
					_ = svc.balancer.Unbind(op.Addr)
				}
			}
			p.Permits.Drop(op.Addr)
			return op, nil
		},
		func(_ *Cloud, p *Provider, tenant string, op *intent.Op) { p.released(tenant, op.Addr, false) }},
	intent.OpRequestSIP: {slo.VerbGrant,
		func(_ *Cloud, p *Provider, st *intent.State, _ string, op intent.Op) (_ intent.Op, err error) {
			op.Addr, err = st.NextGrant(&op, p.cfg.SIPBase)
			return op, err
		},
		func(c *Cloud, p *Provider, tenant string, op *intent.Op) {
			p.services.Put(op.Addr, &service{sip: op.Addr, balancer: lb.New(op.Addr)})
			c.tenantDelta(tenant, 1)
		}},
	intent.OpReleaseSIP: {slo.VerbGrant,
		func(_ *Cloud, p *Provider, _ *intent.State, _ string, op intent.Op) (intent.Op, error) {
			p.Permits.Drop(op.Addr)
			return op, nil
		},
		func(_ *Cloud, p *Provider, tenant string, op *intent.Op) { p.released(tenant, op.Addr, true) }},
	intent.OpBind: {slo.VerbBind, nil,
		func(_ *Cloud, p *Provider, _ string, op *intent.Op) {
			if svc, ok := p.services.Get(op.SIP); ok {
				svc.balancer.Bind(op.EIP, op.Weight)
			}
		}},
	intent.OpUnbind: {slo.VerbBind, nil,
		func(_ *Cloud, p *Provider, _ string, op *intent.Op) {
			if svc, ok := p.services.Get(op.SIP); ok {
				_ = svc.balancer.Unbind(op.EIP) // a drifted balancer may already lack it
			}
		}},
	intent.OpSetPermit: {slo.VerbPermit,
		func(_ *Cloud, p *Provider, st *intent.State, tenant string, op intent.Op) (intent.Op, error) {
			op.Provider = p.Name
			// The groups expand here, from the declared memberships: the
			// journal records the expanded entries, for a replay that named
			// the groups would expand another membership.
			entries := slices.Clip(op.Entries) // appends below copy, never write into the op
			for _, g := range op.Groups {
				members, ok := st.Groups[intent.GroupKey(tenant, g)]
				if !ok {
					return op, fmt.Errorf("core: unknown group %q", g)
				}
				for _, m := range members {
					entries = append(entries, addr.NewPrefix(m, 32))
				}
			}
			// The declared state's set for the list (never the caller's).
			op.Next = st.PermitSet(entries)
			op.Entries, op.Groups = op.Next.Entries(), nil
			return op, nil
		},
		installPermits},
	// permit (add each of op's entries) and revoke (remove each): the fold
	// derives the target's next declared list from its declared one.
	intent.OpPermit: {slo.VerbPermit, nil, installPermits},
	intent.OpRevoke: {slo.VerbPermit, nil, installPermits},
	intent.OpSetQoS: {slo.VerbQoS,
		func(_ *Cloud, p *Provider, _ *intent.State, _ string, op intent.Op) (intent.Op, error) {
			if _, ok := p.eipBlocks[op.Region]; !ok {
				return op, fmt.Errorf("core: unknown region %q", op.Region)
			}
			return op, nil
		},
		nothing}, // the data plane installs the quota (DataPlane.Apply)
	intent.OpSetPotato: {slo.VerbQoS,
		func(_ *Cloud, _ *Provider, _ *intent.State, _ string, op intent.Op) (intent.Op, error) {
			_, err := qos.ParsePotatoPolicy(op.Policy)
			return op, err
		},
		func(_ *Cloud, p *Provider, tenant string, op *intent.Op) {
			policy, _ := qos.ParsePotatoPolicy(op.Policy)
			p.setPotato(tenant, policy)
		}},
	intent.OpSetVMEgress:    {slo.VerbQoS, nil, nothing}, // a connect reads the cap off the declared record
	intent.OpCreateGroup:    {slo.VerbBind, nil, nothing},
	intent.OpRegisterName:   {slo.VerbBind, nil, nothing},
	intent.OpUnregisterName: {slo.VerbBind, nil, nothing},
}

// installPermits is the install of the permit verbs: the installed list
// is derived from the folded one (Provider.installPermits).
func installPermits(_ *Cloud, p *Provider, tenant string, op *intent.Op) {
	p.installPermits(tenant, op)
}

// route routes op. It names the shard the verb locks, the verb, and the
// owning provider of a verb routed by name, completing what the provider
// derives from the operands (request_eip's Provider, VM and Region). It
// runs nothing, and it reads only the topology's node table and the
// address block carving, never which addresses are granted right now: an
// address-targeted verb's key is its target's static block, and apply
// asks for the target's owner (Cloud.owner) only under the locks. So the
// key is valid even alongside a routing error, and apply can plan every
// op's key — with a stand-in address for a "$i" operand whose grant has
// not happened yet — before it takes a single lock. An unknown verb
// routes to an empty verb beside its error.
func (c *Cloud) route(tenant string, op *intent.Op) (k ShardKey, v *verb, p *Provider, err error) {
	k = ShardKey{Tenant: tenant} // cloud-level verbs: the tenant's region-less shard
	if a, ok := target(op); ok {
		k = c.shardKeyOf(tenant, a)
	}
	v, ok := verbs[op.Verb]
	if !ok {
		return k, unknownVerb, nil, fmt.Errorf("core: unknown verb %q", op.Verb)
	}
	switch op.Verb {
	case intent.OpRequestEIP:
		n, ok := c.G.Node(topo.NodeID(op.VM))
		if !ok {
			return k, v, nil, fmt.Errorf("core: unknown VM %q", op.VM)
		}
		if op.Provider == "" {
			op.Provider = n.Provider
		}
		// The topology's own ID string stands for the VM from here on, in
		// the journal op and the endpoint alike: the decoded request's
		// copy is not retained.
		op.VM, op.Region = string(n.ID), n.Region
		p, k, err = c.named(tenant, op.Provider, n.Region)
	case intent.OpRequestSIP, intent.OpSetPotato:
		p, k, err = c.named(tenant, op.Provider, "")
	case intent.OpSetQoS:
		p, k, err = c.named(tenant, op.Provider, op.Region)
	case intent.OpCreateGroup:
		if op.Provider != "" {
			err = fmt.Errorf("core: create_group is tenant-wide; provider %q given", op.Provider)
		}
	}
	return k, v, p, err
}

// unknownVerb is what route returns beside an unknown verb's error.
var unknownVerb = &verb{}

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
