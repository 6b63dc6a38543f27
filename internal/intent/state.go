// State is the declared world: the fold of every accepted mutation —
// endpoints, services and their binds, permit lists (group references
// expanded by core at verb time, before the op is folded), quotas, potato
// profiles, groups, names, and the address pools' allocation cursors. It
// is the only copy of what tenants declared and the only address
// allocator: a control plane checks each op against it, takes each grant's
// address from it (NextGrant), folds the op into it and derives its
// installed state (permit engines, balancers, limiters) from it; restart
// recovery replays the journal into it, and the reconciler treats it as
// desired state.
package intent

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"declnet/internal/addr"
)

// Endpoint is the declared record of one granted EIP, three words: its
// placement (held once per distinct tuple, and embedded, so ep.Tenant and
// ep.VM read through it), its egress cap and its permit list.
type Endpoint struct {
	*Placement
	EgressCap float64         `json:"egress_cap,omitempty"`
	Permits   *addr.PrefixSet `json:"-"` // see PermitList
}

// Bind is one declared EIP -> SIP binding (weight already clamped the
// way the balancer clamps it, so desired and actual compare directly).
type Bind struct {
	EIP    addr.IP `json:"eip"`
	Weight int     `json:"weight"`
}

// Service is the declared record of one granted SIP.
type Service struct {
	Tenant   string          `json:"tenant"`
	Provider string          `json:"provider"`
	Binds    []Bind          `json:"binds,omitempty"`
	Permits  *addr.PrefixSet `json:"-"` // see PermitList
}

// PermitList is the declared permit list guarding one target, group
// references already expanded, as State.Permit reads it: the target's
// holder and its record's Permits, with that set's entries. A record
// holds a reference to its target's set, which every record declaring
// an equal list — the state holds one set per distinct list (interns) —
// and the permit engine share, so a permitted endpoint costs one word of
// its own. Permits is nil when the target declares no list, and non-nil
// when it declares one — with no entries for a guarded list that admits
// nothing: a list that admits nothing is enforced, a missing one is not
// installed at all.
type PermitList struct {
	Tenant  string
	Set     *addr.PrefixSet
	Entries []addr.Prefix // Set.Entries()
}

// PoolState is one address pool's allocation cursor: the next-fresh
// address and the free list of released ones, in release order. It is
// the pool: a grant takes the address NextGrant reads off it, and the
// fold of the grant or release moves it, so a pool rebuilt from the
// journal hands out exactly the addresses the crashed one would have.
type PoolState struct {
	Next     addr.IP   `json:"next"`
	Released []addr.IP `json:"released,omitempty"`
}

// maxSkip bounds a claim's skip-fill: one /16, the size of every pool
// (an EIP region block, a provider's SIP base).
const maxSkip = 1 << 16

// Available returns the pool's cursor over block: its next fresh address
// — block's second until the pool's first grant (the first is reserved)
// — and its free list, oldest first. A nil pool has granted nothing.
func (ps *PoolState) Available(block addr.Prefix) (next addr.IP, released []addr.IP) {
	if ps == nil || ps.Next == 0 {
		return block.First() + 1, nil
	}
	return ps.Next, ps.Released
}

// claim folds "this address was granted" into ps, a pool of s. A live
// grant claims what NextGrant read off the cursor, in order; a store
// written when pools allocated outside the journal's lock may hold grants
// out of pool order, so claim tolerates them: a claim past the cursor
// skip-fills the gap into Released (the gap addresses' own claims remove
// them again), and a claim below the cursor that is not in Released was
// already skip-filled past. The skip-fill passes over an address s
// declares — one a restored cursor stepped over — which is not free: its
// release puts it on the list. A claim more than maxSkip past the cursor
// names an address its pool cannot hold; it is an error, and changes
// nothing.
func (s *State) claim(ps *PoolState, a addr.IP) error {
	if ps.Next == 0 {
		ps.Next = a
	}
	if a > ps.Next && a-ps.Next > maxSkip {
		return fmt.Errorf("grant of %s lies %d addresses past its pool's cursor %s", a, a-ps.Next, ps.Next)
	}
	for i, r := range ps.Released {
		if r == a {
			if i == 0 {
				ps.Released = ps.Released[1:]
			} else {
				ps.Released = append(ps.Released[:i], ps.Released[i+1:]...)
			}
			return nil
		}
	}
	switch {
	case a == ps.Next:
		ps.Next++
	case a > ps.Next:
		for ip := ps.Next; ip < a; ip++ {
			if !s.declares(ip) {
				ps.Released = append(ps.Released, ip)
			}
		}
		ps.Next = a + 1
	}
	return nil
}

// release appends a to the free list, which grants draw from oldest
// first, unless the list holds it already (a decoded snapshot's may).
func (ps *PoolState) release(a addr.IP) {
	if !slices.Contains(ps.Released, a) {
		ps.Released = append(ps.Released, a)
	}
}

// State is the full declared world at one journal sequence number: the
// snapshot file holds exactly its exported fields. Its JSON tags are not a
// store format; they render a state's string-keyed sections for
// comparison.
//
// Endpoints and Services are indexed by address, not hashed: each is an
// addr.Table, a few bytes per granted address on the pages of its /16,
// walked in ascending address order (Table.Ascend) wherever order shows
// — the snapshot's sections, the reconciler's rotation, recovery — so
// nothing sorts their keys. The log's lock serializes their writers; a
// single entry reads without it, under the table's own stripe lock, which
// is how core's read plane resolves an address.
//
// An *Endpoint or *Service is immutable once stored: applyOp replaces the
// table entry with an edited copy and never writes through the pointer or
// into a slice or set it holds. That is what lets a reader hold the entry
// itself after the lock is released, and what lets core's permit engine
// hold the declared permit set as its installed one.
type State struct {
	Seq  uint64            `json:"seq"`
	Meta map[string]string `json:"meta,omitempty"`

	Endpoints *addr.Table[*Endpoint] `json:"-"`
	Services  *addr.Table[*Service]  `json:"-"`

	// Quotas keys "provider|tenant|region" -> bits/s. Potato keys
	// "provider|tenant" -> policy name. Groups and Names key
	// "tenant|name".
	Quotas map[string]float64   `json:"quotas,omitempty"`
	Potato map[string]string    `json:"potato,omitempty"`
	Groups map[string][]addr.IP `json:"groups,omitempty"`
	Names  map[string]addr.IP   `json:"names,omitempty"`

	// EIPPools keys "provider/region" (the shard-region notation);
	// SIPPools keys the provider name.
	EIPPools map[string]*PoolState `json:"eip_pools,omitempty"`
	SIPPools map[string]*PoolState `json:"sip_pools,omitempty"`

	// refs is derived from Services, Groups and Names and never encoded:
	// nil until a fold first needs it (index).
	refs *refIndex
	// held is the table of the permit sets and placements the records
	// share, kept by every fold and by the decoder.
	held interns
}

// refIndex is what the declared world names each address by besides its
// own record, so that a release finds what it must drain without walking
// services, groups or names. Each list is replaced, never edited in place,
// so core may hold one it read under the lock.
type refIndex struct {
	bound  addr.Table[[]addr.IP] // EIP -> the SIPs it is bound to
	groups addr.Table[[]string]  // EIP -> the GroupKeys of the groups it is a member of
	names  addr.Table[[]string]  // address -> the GroupKeys of the names that point at it
}

// NewState returns an empty declared world.
func NewState() *State {
	return &State{
		Endpoints: new(addr.Table[*Endpoint]),
		Services:  new(addr.Table[*Service]),
		Quotas:    make(map[string]float64),
		Potato:    make(map[string]string),
		Groups:    make(map[string][]addr.IP),
		Names:     make(map[string]addr.IP),
		EIPPools:  make(map[string]*PoolState),
		SIPPools:  make(map[string]*PoolState),
	}
}

// Composite-key builders. "|" separates the parts: a provider or region
// name is one the topology declares, which never contains it; a name is
// always the last part; and a tenant name, which comes from a request,
// must pass CheckTenant before anything keyed by it is applied.
func QuotaKey(provider, tenant, region string) string { return provider + "|" + tenant + "|" + region }
func PotatoKey(provider, tenant string) string        { return provider + "|" + tenant }
func GroupKey(tenant, name string) string             { return tenant + "|" + name }
func PoolKey(provider, region string) string          { return provider + "/" + region }

// CheckTenant refuses a tenant name the composite keys cannot carry: one
// containing "|" would split at the wrong place on the way back
// (tenant "a|b" and name "db" key the same as tenant "a" and name
// "b|db").
func CheckTenant(tenant string) error {
	if strings.Contains(tenant, "|") {
		return fmt.Errorf("intent: tenant name %q contains %q", tenant, "|")
	}
	return nil
}

// ParseQuotaKey is QuotaKey's inverse; ok is false for a string QuotaKey
// could not have built.
func ParseQuotaKey(key string) (provider, tenant, region string, ok bool) {
	provider, rest, ok1 := strings.Cut(key, "|")
	tenant, region, ok2 := strings.Cut(rest, "|")
	return provider, tenant, region, ok1 && ok2
}

func (s *State) eipPool(provider, region string) *PoolState {
	k := PoolKey(provider, region)
	ps := s.EIPPools[k]
	if ps == nil {
		ps = &PoolState{}
		s.EIPPools[k] = ps
	}
	return ps
}

func (s *State) sipPool(provider string) *PoolState {
	ps := s.SIPPools[provider]
	if ps == nil {
		ps = &PoolState{}
		s.SIPPools[provider] = ps
	}
	return ps
}

// NextGrant returns the address a grant op — a request_eip or
// request_sip whose provider (and region) core has routed — takes from
// block, the span of its pool: the oldest address on the pool's free
// list, else its cursor (PoolState.Available). An address the state
// already declares an endpoint or service at, which a decoded snapshot's
// free list or cursor may name, is skipped and never granted over its
// record, as is a free-list address outside block. NextGrant changes
// nothing: the frame's Fold claims the address.
func (s *State) NextGrant(op *Op, block addr.Prefix) (addr.IP, error) {
	ps := s.SIPPools[op.Provider]
	if op.Verb == OpRequestEIP {
		ps = s.EIPPools[PoolKey(op.Provider, op.Region)]
	}
	next, released := ps.Available(block)
	for _, a := range released {
		if block.Contains(a) && !s.declares(a) {
			return a, nil
		}
	}
	for ; block.Contains(next); next++ {
		if !s.declares(next) {
			return next, nil
		}
	}
	return 0, fmt.Errorf("intent: pool %s: %w", block, addr.ErrExhausted)
}

// declares reports whether a is a declared endpoint or service.
func (s *State) declares(a addr.IP) bool {
	if _, ok := s.Endpoints.Get(a); ok {
		return true
	}
	_, ok := s.Services.Get(a)
	return ok
}

// Apply folds one record into the state. Records at or below the
// state's sequence are skipped (the snapshot already covers them), so
// replaying a journal whose prefix predates the snapshot is idempotent.
// An apply error means the journal is inconsistent with the state — the
// caller should stop replaying there.
func (s *State) Apply(rec *Record) error {
	if rec.Seq != 0 && rec.Seq <= s.Seq {
		return nil
	}
	if len(rec.Meta) > 0 {
		if s.Meta == nil {
			s.Meta = make(map[string]string, len(rec.Meta))
		}
		for k, v := range rec.Meta {
			s.Meta[k] = v
		}
	}
	for i := range rec.Ops {
		if err := s.applyOp(rec.Tenant, &rec.Ops[i]); err != nil {
			return fmt.Errorf("intent: record %d op %d (%s): %w", rec.Seq, i, rec.Ops[i].Verb, err)
		}
	}
	if rec.Seq > s.Seq {
		s.Seq = rec.Seq
	}
	return nil
}

func (s *State) applyOp(tenant string, op *Op) error {
	switch op.Verb {
	case OpRequestEIP:
		if err := s.claim(s.eipPool(op.Provider, op.Region), op.Addr); err != nil {
			return err
		}
		// A fresh grant starts default-off with no bindings, groups or
		// names. A release returns its address to the pool in its own
		// fold, so no re-grant's frame precedes it, and NextGrant never
		// names a declared address; one that still has a record here is a
		// stale incarnation, which only a store written before that rule
		// holds, under a release/re-grant journal inversion (see
		// OpReleaseEIP), and the grant is where its binds, groups and
		// names go away.
		if old, stale := s.Endpoints.Get(op.Addr); stale {
			s.unref(op.Addr)
			s.unholdEndpoint(old)
		}
		s.Endpoints.Put(op.Addr, &Endpoint{Placement: s.held.place(Placement{tenant, op.VM, op.Provider, op.Region})})
	case OpReleaseEIP:
		ep, ok := s.Endpoints.Get(op.Addr)
		if !ok {
			return fmt.Errorf("release of unknown endpoint %s", op.Addr)
		}
		if ep.Tenant != tenant {
			// Stale record, which only a store written before releases
			// were journaled ahead of their address's return to the pool
			// can hold: the journal serializes on append order, which
			// under concurrent shards could then place a release after
			// the re-grant that reused its address. The re-grant's apply
			// already cleaned up; the release's pool effect was consumed
			// by the re-claim. Drop it.
			return nil
		}
		s.unref(op.Addr)
		s.Endpoints.Delete(op.Addr)
		s.unholdEndpoint(ep)
		s.eipPool(ep.Provider, ep.Region).release(op.Addr)
	case OpRequestSIP:
		if err := s.claim(s.sipPool(op.Provider), op.Addr); err != nil {
			return err
		}
		if old, stale := s.Services.Get(op.Addr); stale {
			s.unref(op.Addr)
			s.held.drop(old.Permits)
		}
		s.Services.Put(op.Addr, &Service{Tenant: tenant, Provider: op.Provider})
	case OpReleaseSIP:
		svc, ok := s.Services.Get(op.Addr)
		if !ok {
			return fmt.Errorf("release of unknown service %s", op.Addr)
		}
		if svc.Tenant != tenant {
			return nil // stale record, as in OpReleaseEIP
		}
		s.unref(op.Addr)
		s.Services.Delete(op.Addr)
		s.held.drop(svc.Permits)
		s.sipPool(svc.Provider).release(op.Addr)
	case OpBind:
		svc, ok := s.Services.Get(op.SIP)
		if !ok {
			return fmt.Errorf("bind to unknown service %s", op.SIP)
		}
		w := op.Weight
		if w < 1 {
			w = 1 // the balancer clamps; store what it stores
		}
		next := *svc
		if i := bindIndex(svc, op.EIP); i >= 0 {
			next.Binds = slices.Clone(svc.Binds)
			next.Binds[i].Weight = w
		} else {
			next.Binds = append(slices.Clip(svc.Binds), Bind{EIP: op.EIP, Weight: w})
			addRef(&s.index().bound, op.EIP, op.SIP)
		}
		s.Services.Put(op.SIP, &next)
	case OpUnbind:
		svc, ok := s.Services.Get(op.SIP)
		if !ok {
			return fmt.Errorf("unbind from unknown service %s", op.SIP)
		}
		if i := bindIndex(svc, op.EIP); i >= 0 {
			s.Services.Put(op.SIP, withoutBind(svc, i))
			dropRef(&s.index().bound, op.EIP, op.SIP)
		}
	case OpSetPermit, OpPermit, OpRevoke:
		if len(op.Groups) > 0 {
			// core expands a set_permit's groups before it folds the op
			return fmt.Errorf("set_permit names groups %q, not their members", op.Groups)
		}
		for _, e := range op.Entries {
			if e.Len < 0 || e.Len > 32 {
				// what replay refuses (decoder.entries), so no writer journals it
				return fmt.Errorf("permit entry %s/%d: prefix length outside 0–32", e.Addr, e.Len)
			}
		}
		if ep, ok := s.Endpoints.Get(op.Target); ok && ep.Tenant == tenant {
			next := *ep
			op.Prev, op.Next = ep.Permits, s.repermit(op, ep.Permits)
			next.Permits = op.Next
			s.Endpoints.Put(op.Target, &next)
		} else if svc, ok := s.Services.Get(op.Target); ok && svc.Tenant == tenant {
			next := *svc
			op.Prev, op.Next = svc.Permits, s.repermit(op, svc.Permits)
			next.Permits = op.Next
			s.Services.Put(op.Target, &next)
		}
		// Otherwise no record of the tenant's is there to hold a list, and
		// the op declares nothing: core refuses a permit verb on a target
		// the tenant does not hold, so only a journal written by hand
		// names one.
	case OpSetQoS:
		// A rate already declared changes nothing, and builds no key.
		var kb [96]byte
		key := append(append(append(append(append(kb[:0], op.Provider...), '|'), tenant...), '|'), op.Region...)
		if bps, ok := s.Quotas[string(key)]; !ok || bps != op.Bps {
			s.Quotas[string(key)] = op.Bps
		}
	case OpSetPotato:
		s.Potato[PotatoKey(op.Provider, tenant)] = op.Policy
	case OpSetVMEgress:
		ep, ok := s.Endpoints.Get(op.EIP)
		if !ok {
			return fmt.Errorf("egress cap for unknown endpoint %s", op.EIP)
		}
		next := *ep
		next.EgressCap = op.Bps
		s.Endpoints.Put(op.EIP, &next)
	case OpCreateGroup:
		if op.Provider != "" {
			return fmt.Errorf("provider-scoped group %q (groups are tenant-wide)", op.Name)
		}
		// core checks every member is the tenant's; in a journal, one that
		// is not here was released by a record the journal placed first.
		key, idx := GroupKey(tenant, op.Name), s.index()
		for _, m := range s.Groups[key] {
			dropRef(&idx.groups, m, key)
		}
		s.Groups[key] = slices.DeleteFunc(append([]addr.IP(nil), op.Members...), func(m addr.IP) bool {
			ep, ok := s.Endpoints.Get(m)
			return !ok || ep.Tenant != tenant
		})
		for _, m := range s.Groups[key] {
			addRef(&idx.groups, m, key)
		}
	case OpRegisterName:
		key := GroupKey(tenant, op.Name)
		s.unname(key)
		if s.owns(tenant, op.Addr) { // else released by an earlier record, as in OpCreateGroup
			s.Names[key] = op.Addr
			addRef(&s.index().names, op.Addr, key)
		}
	case OpUnregisterName:
		s.unname(GroupKey(tenant, op.Name))
	default:
		return fmt.Errorf("unknown verb %q", op.Verb)
	}
	return nil
}

// repermit returns the held permit list a set_permit, permit or revoke
// op leaves declared on a target whose declared list is cur (nil for
// none), and moves the target's hold from cur to it: nil when revoke
// finds no list, otherwise a guarded list — for a set_permit, op.Next
// when the verb set it (State.PermitSet), else the set of op.Entries.
func (s *State) repermit(op *Op, cur *addr.PrefixSet) *addr.PrefixSet {
	var next *addr.PrefixSet
	switch {
	case op.Verb == OpSetPermit && op.Next != nil:
		next = op.Next
	case op.Verb == OpSetPermit:
		next = s.held.canonical(op.Entries)
	case cur == nil && op.Verb == OpRevoke:
		return nil // revoking from an empty list is a no-op, as in core
	default:
		next = s.held.successor(op, cur)
	}
	next = s.held.hold(next)
	s.held.drop(cur)
	return next
}

// unholdEndpoint drops what a record leaving the state held.
func (s *State) unholdEndpoint(ep *Endpoint) {
	s.held.unplace(ep.Placement)
	s.held.drop(ep.Permits)
}

// bindIndex is the position of eip among svc's bindings, or -1.
func bindIndex(svc *Service, eip addr.IP) int {
	return slices.IndexFunc(svc.Binds, func(b Bind) bool { return b.EIP == eip })
}

// withoutBind is svc with binding i dropped, in a copy.
func withoutBind(svc *Service, i int) *Service {
	next := *svc
	next.Binds = slices.Delete(slices.Clone(svc.Binds), i, i+1)
	return &next
}

// index returns the by-address index, building it from the sections the
// first time a fold needs it (a state decoded or cloned carries none).
func (s *State) index() *refIndex {
	if s.refs == nil {
		s.refs = new(refIndex)
		s.Services.Ascend(0, func(sip addr.IP, svc *Service) bool {
			for _, b := range svc.Binds {
				addRef(&s.refs.bound, b.EIP, sip)
			}
			return true
		})
		for key, members := range s.Groups {
			for _, m := range members {
				addRef(&s.refs.groups, m, key)
			}
		}
		for key, a := range s.Names {
			addRef(&s.refs.names, a, key)
		}
	}
	return s.refs
}

// addRef lists v under a in t, once; dropRef unlists it, deleting a's
// entry with its last value. Both store a new list.
func addRef[V comparable](t *addr.Table[[]V], a addr.IP, v V) {
	if cur, _ := t.Get(a); !slices.Contains(cur, v) {
		t.Put(a, append(slices.Clip(cur), v))
	}
}

func dropRef[V comparable](t *addr.Table[[]V], a addr.IP, v V) {
	cur, _ := t.Get(a)
	switch i := slices.Index(cur, v); {
	case i < 0:
	case len(cur) == 1:
		t.Delete(a)
	default:
		t.Put(a, slices.Delete(slices.Clone(cur), i, i+1))
	}
}

// unref drops everything that names a, as its release does: the binds of
// an EIP (found through the index) or of a SIP (its own record's), and the
// groups and names that hold it. Members are replaced in copies.
func (s *State) unref(a addr.IP) {
	idx := s.index()
	sips, _ := idx.bound.Get(a)
	for _, sip := range sips {
		svc, _ := s.Services.Get(sip)
		s.Services.Put(sip, withoutBind(svc, bindIndex(svc, a)))
	}
	idx.bound.Delete(a)
	if svc, ok := s.Services.Get(a); ok {
		for _, b := range svc.Binds {
			dropRef(&idx.bound, b.EIP, a)
		}
	}
	keys, _ := idx.groups.Get(a)
	for _, key := range keys {
		s.Groups[key] = slices.DeleteFunc(slices.Clone(s.Groups[key]), func(m addr.IP) bool { return m == a })
	}
	idx.groups.Delete(a)
	keys, _ = idx.names.Get(a)
	for _, key := range keys {
		delete(s.Names, key)
	}
	idx.names.Delete(a)
}

// unname drops the name under key, if there is one.
func (s *State) unname(key string) {
	if a, ok := s.Names[key]; ok {
		dropRef(&s.index().names, a, key)
		delete(s.Names, key)
	}
}

// Bound returns the SIPs eip is bound to, a list the state never edits.
func (s *State) Bound(eip addr.IP) []addr.IP {
	sips, _ := s.index().bound.Get(eip)
	return sips
}

// Permit returns the declared permit list guarding target, and whether
// there is one.
func (s *State) Permit(target addr.IP) (PermitList, bool) {
	if ep, ok := s.Endpoints.Get(target); ok {
		return PermitList{Tenant: ep.Tenant, Set: ep.Permits, Entries: ep.Permits.Entries()}, ep.Permits != nil
	}
	if svc, ok := s.Services.Get(target); ok {
		return PermitList{Tenant: svc.Tenant, Set: svc.Permits, Entries: svc.Permits.Entries()}, svc.Permits != nil
	}
	return PermitList{}, false
}

// owns reports whether a is one of tenant's endpoints or services.
func (s *State) owns(tenant string, a addr.IP) bool {
	if ep, ok := s.Endpoints.Get(a); ok {
		return ep.Tenant == tenant
	}
	svc, ok := s.Services.Get(a)
	return ok && svc.Tenant == tenant
}

// Clone copies the state: recovery, the tests and the benchmark take one
// through Log.State and own it outright — except its endpoints, placements
// and permit lists, which are immutable once stored and shared. The
// by-address index is not copied; the copy builds its own when it first
// folds a release.
func (s *State) Clone() *State {
	c := &State{
		held:      s.held.clone(),
		Seq:       s.Seq,
		Meta:      maps.Clone(s.Meta),
		Endpoints: new(addr.Table[*Endpoint]),
		Services:  new(addr.Table[*Service]),
		Quotas:    maps.Clone(s.Quotas),
		Potato:    maps.Clone(s.Potato),
		Groups:    make(map[string][]addr.IP, len(s.Groups)),
		Names:     maps.Clone(s.Names),
		EIPPools:  make(map[string]*PoolState, len(s.EIPPools)),
		SIPPools:  make(map[string]*PoolState, len(s.SIPPools)),
	}
	s.Endpoints.Ascend(0, func(ip addr.IP, ep *Endpoint) bool {
		c.Endpoints.Put(ip, ep)
		return true
	})
	s.Services.Ascend(0, func(ip addr.IP, v *Service) bool {
		svc := *v
		svc.Binds = append([]Bind(nil), v.Binds...)
		c.Services.Put(ip, &svc)
		return true
	})
	for k, v := range s.Groups {
		c.Groups[k] = append([]addr.IP(nil), v...)
	}
	for k, v := range s.EIPPools {
		c.EIPPools[k] = &PoolState{Next: v.Next, Released: append([]addr.IP(nil), v.Released...)}
	}
	for k, v := range s.SIPPools {
		c.SIPPools[k] = &PoolState{Next: v.Next, Released: append([]addr.IP(nil), v.Released...)}
	}
	return c
}
