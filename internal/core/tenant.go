package core

import (
	"time"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/permit"
	"declnet/internal/qos"
	"declnet/internal/slo"
	"declnet/internal/topo"
)

// Tenant is one tenant's view of the Table-2 API across every provider
// in the cloud — the paper's uniform multi-cloud interface, and the only
// Go facade for the verbs. Each verb builds its intent.Op and runs it
// through Cloud.Apply, into the apply loop (Cloud.apply) that ApplyBatch,
// and so every HTTP mutation route, shares.
// Creating a handle is free; all state lives provider-side.
type Tenant struct {
	c    *Cloud
	name string
}

// Tenant returns the handle for one tenant account.
func (c *Cloud) Tenant(name string) *Tenant { return &Tenant{c: c, name: name} }

// Name returns the tenant account name.
func (t *Tenant) Name() string { return t.name }

// do applies op for the verbs that return no address.
func (t *Tenant) do(op intent.Op) error {
	_, err := t.c.Apply(t.name, op)
	return err
}

// RequestEIP grants an endpoint IP for a VM (Table 2:
// request_eip(vm_id)). The provider and region follow from the VM's
// place in the world; the region picks the dense block the flat address
// comes from. The endpoint starts default-off: nothing reaches it until
// a permit list says so.
func (t *Tenant) RequestEIP(vm topo.NodeID) (EIP, error) {
	return t.c.Apply(t.name, intent.Op{Verb: intent.OpRequestEIP, VM: string(vm)})
}

// ReleaseEIP returns an endpoint IP and tears down its bindings, its
// permit state, and its membership in the tenant's groups and names.
func (t *Tenant) ReleaseEIP(eip EIP) error {
	return t.do(intent.Op{Verb: intent.OpReleaseEIP, Addr: eip})
}

// RequestSIP grants a service IP at the named provider (Table 2:
// request_sip()).
func (t *Tenant) RequestSIP(provider string) (SIP, error) {
	return t.c.Apply(t.name, intent.Op{Verb: intent.OpRequestSIP, Provider: provider})
}

// ReleaseSIP tears down a service address, as ReleaseEIP does an
// endpoint's.
func (t *Tenant) ReleaseSIP(sip SIP) error {
	return t.do(intent.Op{Verb: intent.OpReleaseSIP, Addr: sip})
}

// Bind associates an EIP with a SIP (Table 2: bind(eip, sip)) with the
// optional weight extension; weight <= 0 means 1. The provider owns all
// load balancing.
func (t *Tenant) Bind(eip EIP, sip SIP, weight int) error {
	return t.do(intent.Op{Verb: intent.OpBind, EIP: eip, SIP: sip, Weight: weight})
}

// Unbind removes an EIP from a SIP with connection draining.
func (t *Tenant) Unbind(eip EIP, sip SIP) error {
	return t.do(intent.Op{Verb: intent.OpUnbind, EIP: eip, SIP: sip})
}

// SetPermitList replaces the permit list guarding an EIP or SIP (Table 2:
// set_permit_list(eip, permit_list)). Group names expand to their
// membership at the time of the call.
func (t *Tenant) SetPermitList(target addr.IP, entries []permit.Entry, groups ...string) error {
	return t.do(intent.Op{Verb: intent.OpSetPermit, Target: target, Entries: entries, Groups: groups})
}

// Permit adds one entry to a target's permit list.
func (t *Tenant) Permit(target addr.IP, entry permit.Entry) error {
	return t.do(intent.Op{Verb: intent.OpPermit, Target: target, Entries: []permit.Entry{entry}})
}

// Revoke removes one entry from a target's permit list.
func (t *Tenant) Revoke(target addr.IP, entry permit.Entry) error {
	return t.do(intent.Op{Verb: intent.OpRevoke, Target: target, Entries: []permit.Entry{entry}})
}

// SetQoS sets the tenant's egress-bandwidth allowance out of one region
// of a provider, in bits/s (Table 2: set_qos(region, bandwidth)).
func (t *Tenant) SetQoS(provider, region string, bandwidth float64) error {
	return t.do(intent.Op{Verb: intent.OpSetQoS, Provider: provider, Region: region, Bps: bandwidth})
}

// SetVMEgressCap overrides one endpoint's egress bandwidth guarantee in
// bits/s — today's standard per-VM offering, adopted unchanged (§4 QoS).
func (t *Tenant) SetVMEgressCap(eip EIP, bps float64) error {
	return t.do(intent.Op{Verb: intent.OpSetVMEgress, EIP: eip, Bps: bps})
}

// SetPotato selects the tenant's transit profile at a provider
// (hot/cold/dedicated-approximation; §4 QoS "adopt this option
// unchanged").
func (t *Tenant) SetPotato(provider string, policy qos.PotatoPolicy) error {
	return t.do(intent.Op{Verb: intent.OpSetPotato, Provider: provider, Policy: policy.String()})
}

// CreateGroup defines or replaces a named endpoint group usable in
// SetPermitList at any provider; members may span clouds (extension; §4
// Connectivity).
func (t *Tenant) CreateGroup(group string, members ...EIP) error {
	return t.do(intent.Op{Verb: intent.OpCreateGroup, Name: group, Members: members})
}

// Register binds a tenant-scoped name to one of the tenant's addresses
// (EIP or SIP) — the §6 extension that abstracts above IP addresses.
// Re-registering a name repoints it, which is how a tenant cuts over a
// service without clients noticing.
func (t *Tenant) Register(name string, target addr.IP) error {
	return t.do(intent.Op{Verb: intent.OpRegisterName, Name: name, Addr: target})
}

// Unregister removes a name binding, reporting whether it existed.
func (t *Tenant) Unregister(name string) bool {
	return t.do(intent.Op{Verb: intent.OpUnregisterName, Name: name}) == nil
}

// Resolve returns the address behind one of the tenant's names.
func (t *Tenant) Resolve(name string) (addr.IP, bool) {
	var ip addr.IP
	var ok bool
	t.c.decl.Read(func(st *intent.State) { ip, ok = st.Names[intent.GroupKey(t.name, name)] })
	return ip, ok
}

// Connect runs connect's control-plane half from one of the tenant's
// EIPs to a destination EIP or SIP: (1) default-off permit admission at
// the destination provider, (2) SIP load balancing when the target is a
// service address, (3) potato-profile path selection, each a stage of
// the connect's SLO span with its decision traced. It hands the admitted
// Route to start, the data plane's half — package simplane's Connect
// starts the flow and enforces the egress caps there — and the connect
// counts as made when start returns nil; when start fails, Connect
// returns the route's backend slot.
//
// Cross-shard protocol: the connect holds read locks on both endpoints'
// shards, taken in deterministic key order (see ShardSet.rlockShards),
// start included, so a mutation storm in an unrelated shard cannot stall
// it and opposing connects cannot deadlock. Probe is the write-free
// read-plane variant.
func (t *Tenant) Connect(src EIP, dst addr.IP, start func(op *slo.Op, r *Route) error) error {
	c := t.c
	op := c.slo.Begin(slo.VerbConnect, t.name, "")
	defer c.shards.rlockShards(c.shardKeyOf(t.name, src), c.shardKeyOf(t.name, dst))()
	err := c.connect(&op, t.name, src, dst, start)
	op.End(err)
	return err
}

// Probe measures a round trip from one of the tenant's EIPs to a
// destination, subject to the same admission and path policy as Connect.
// It reports the sampled RTT and whether the (single-datagram) probe
// survived loss. Probe touches only concurrency-safe structures and is
// the scale harness's connect-latency instrument.
func (t *Tenant) Probe(src EIP, dst addr.IP) (time.Duration, bool, error) {
	op := t.c.slo.Begin(slo.VerbProbe, t.name, "")
	rtt, delivered, err := t.ProbeWith(&op, src, dst)
	op.End(err)
	return rtt, delivered, err
}

// ProbeWith is Probe with a caller-owned SLO span threaded through the
// datapath, so per-stage timings land on the caller's request-scoped op
// (the HTTP layer uses this). The caller Ends the op.
func (t *Tenant) ProbeWith(op *slo.Op, src EIP, dst addr.IP) (time.Duration, bool, error) {
	c := t.c
	defer c.shards.rlockShards(c.shardKeyOf(t.name, src), c.shardKeyOf(t.name, dst))()
	return c.probe(op, t.name, src, dst)
}

// Explain replays the datapath decision for a hypothetical flow from one
// of the tenant's EIPs to a destination and returns the ordered verdict
// chain without taking any decision — the declarative answer to
// traceroute plus "why is my security group blocking this" (§6).
func (t *Tenant) Explain(src EIP, dst addr.IP) (*Explanation, error) {
	return t.c.explain(t.name, src, dst)
}
