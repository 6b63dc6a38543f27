// The verb path. Every Table-2 mutation — from the Go facade, a
// single-verb HTTP route, or an op of a /v1/batch — is an intent.Op,
// and Cloud.route is the one place an op is routed to its owning
// provider and shard. Cloud.apply is the one place ops run: it plans
// every op's shard with route, takes them all at once, runs each op's
// body under them and journals the applied ops as one record. Its two
// callers are Cloud.Apply (the Go facade) and ApplyBatch (batch.go,
// which the HTTP routes use).
// A verb is defined by its case in that switch; DESIGN.md "Mutation
// plane" carries the table. A verb applies and journals under one lock,
// so whatever it touched is converged when it returns, accepted or
// refused: it leaves the reconciler nothing to re-check.
package core

import (
	"fmt"
	"math"
	"slices"

	"declnet/internal/addr"
	"declnet/internal/intent"
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
// from the block it will come from), takes the write locks of exactly
// those shards (ShardSet.lockShards), runs each op's body in order,
// completing the op in place, and stops at the first failure. Under the
// same locks, so journal order equals apply order within a shard, it
// records the applied ops as one intent record; an address they released
// returns to its pool only after that (Cloud.free), so no re-grant of it
// can be journaled ahead of its release. It returns how many ops applied
// and the first error. refs are in op order.
//
// A set_permit naming no groups runs with the set of its entries built
// here (frameSets): every set_permit of the frame that declares the same
// entry list — a set-up batch declares one list on each of its
// endpoints — holds that one set.
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
		k, v, _, _, _ := c.route(tenant, op) // a routing error is the run's to report
		if len(ops) == 1 {
			verb, region = v, k.Region
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
	var sets frameSets
	for r := 0; n < len(ops); n++ {
		r = resolve(ops, refs, n, r)
		op := &ops[n]
		released = released || releases(op.Verb)
		_, _, p, run, rerr := c.route(tenant, op)
		if a, ok := target(op); ok && rerr == nil {
			p, rerr = c.owner(a)
		}
		if op.Verb == intent.OpSetPermit {
			op.Next = nil // the verb's result, never its caller's
			if rerr == nil && len(op.Groups) == 0 {
				op.Next = sets.of(op.Entries)
			}
		}
		if rerr == nil {
			*op, rerr = run(c, p, tenant, *op)
		}
		if rerr != nil {
			err = rerr
			break
		}
	}
	if n > 0 && c.rec != nil {
		stg = sop.StageStart()
		c.rec.Record(tenant, ops[:n]...)
		sop.StageEnd(stg, "journal")
	}
	for i := range ops[:n] {
		if releases(ops[i].Verb) {
			if ferr := c.free(ops[i].Addr); ferr != nil && err == nil {
				err = ferr
			}
		}
	}
	sop.End(err)
	if released {
		// End records into the tenant's SLO shard after a release may
		// have evicted it (last address gone); a zero-delta notify
		// re-sweeps so a churned tenant leaves no orphan shard behind.
		c.tenantDelta(tenant, 0)
	}
	return n, err
}

// frameSets is one frame's table of the permit sets its set_permits
// declare, keyed by the entry list as the op names it. It lives for one
// apply call and caches nothing across frames. It keeps the first few
// distinct lists, so a frame of many distinct lists costs a bounded scan
// per op; a list beyond them gets a set of its own.
type frameSets struct {
	n    int
	sets [8]struct {
		entries []addr.Prefix
		set     *addr.PrefixSet
	}
}

// of returns the set holding entries, built on the frame's first ask.
func (f *frameSets) of(entries []addr.Prefix) *addr.PrefixSet {
	for _, s := range f.sets[:f.n] {
		if slices.Equal(s.entries, entries) {
			return s.set
		}
	}
	set := addr.NewPrefixSet(entries)
	if f.n < len(f.sets) {
		f.sets[f.n].entries, f.sets[f.n].set = entries, set
		f.n++
	}
	return set
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

// releases reports whether a verb gives an address back, which returns
// to its pool only once the verb is journaled (Cloud.free).
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
// before the body runs: the answer depends on what is granted now.
func (c *Cloud) owner(a addr.IP) (*Provider, error) {
	p, ok := c.providerOfAddr(a)
	if !ok {
		return nil, fmt.Errorf("core: %s is not a granted address", a)
	}
	return p, nil
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
// locks, the SLO verb it is timed as, the owning provider of a verb
// routed by name and the body that applies it, completing what the
// provider derives from the operands (request_eip's Provider and
// Region). It runs nothing, and it reads only the topology's node
// table and the address block carving, never which addresses are
// granted right now: an address-targeted verb's key is its target's
// static block, and apply asks for the target's owner (Cloud.owner)
// only under the locks. So the key is valid even alongside a routing
// error, and apply can plan every op's key — with a stand-in address
// for a "$i" operand whose grant has not happened yet — before it takes
// a single lock.
func (c *Cloud) route(tenant string, op *intent.Op) (k ShardKey, verb slo.Verb, p *Provider, run verbBody, err error) {
	k = ShardKey{Tenant: tenant} // cloud-level verbs: the tenant's region-less shard
	if a, ok := target(op); ok {
		k = c.shardKeyOf(tenant, a)
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
