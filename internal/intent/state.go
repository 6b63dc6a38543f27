// State is the declared world: the fold of every journaled mutation,
// mirroring exactly the state core's verb bodies build — endpoints,
// services and their binds, permit lists (group references expanded by
// core at verb time, before the op is recorded), quotas, potato
// profiles, groups, names, and the address pools' allocation cursors.
// It is what restart recovery rebuilds the in-memory world from and
// what the reconciler treats as desired state.
package intent

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"declnet/internal/addr"
)

// Endpoint is the declared record of one granted EIP.
type Endpoint struct {
	Tenant    string          `json:"tenant"`
	VM        string          `json:"vm"`
	Provider  string          `json:"provider"`
	Region    string          `json:"region"`
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
// holds a reference to its target's set, which any number of records —
// every target one frame declared the same list on — and the permit
// engine share, so a permitted endpoint costs one word of its own.
// Permits is nil when the target declares no list, and non-nil when it
// declares one — with no entries for a guarded list that admits nothing:
// a list that admits nothing is enforced, a missing one is not installed
// at all.
type PermitList struct {
	Tenant  string
	Set     *addr.PrefixSet
	Entries []addr.Prefix // Set.Entries()
}

// noEntries is the declared list that admits nothing.
var noEntries = addr.AdoptPrefixSet([]addr.Prefix{})

// guarded is set as a declared list: nil becomes one with no entries.
func guarded(set *addr.PrefixSet) *addr.PrefixSet {
	if set == nil {
		return noEntries
	}
	return set
}

// PoolState is one address pool's allocation cursor: the next-fresh
// address and the free list of released ones, in release order. It is
// rebuilt from the journal's grant/release ops so a recovered pool
// hands out exactly the addresses the crashed one would have.
type PoolState struct {
	Next     addr.IP   `json:"next"`
	Released []addr.IP `json:"released,omitempty"`
}

// maxSkip bounds a claim's skip-fill: one /16, the size of every pool
// (an EIP region block, a provider's SIP base).
const maxSkip = 1 << 16

// claim folds "this address was granted" into the cursor. The journal
// serializes on append order, which under concurrent shards may differ
// from pool-allocation order, so claim tolerates out-of-order grants:
// a claim past the cursor skip-fills the gap into Released (the gap
// addresses' own claims remove them again), and a claim below the
// cursor that is not in Released was already skip-filled past. Serial
// schedules replay byte-exact. A claim more than maxSkip past the cursor
// names an address its pool cannot hold; it is an error, and changes
// nothing.
func (ps *PoolState) claim(a addr.IP) error {
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
			ps.Released = append(ps.Released, ip)
		}
		ps.Next = a + 1
	}
	return nil
}

// release appends to the free list (FIFO, matching addr.HostPool).
func (ps *PoolState) release(a addr.IP) {
	ps.Released = append(ps.Released, a)
}

// State is the full declared world at one journal sequence number: the
// snapshot file holds exactly this struct. Its JSON tags are not a store
// format; they render a state's string-keyed sections for comparison.
//
// Endpoints and Services are indexed by address, not hashed: each is an
// addr.Table, a few bytes per granted address on the pages of its /16,
// walked in ascending address order (Table.Ascend) wherever order shows
// — the snapshot's sections, the reconciler's rotation, recovery — so
// nothing sorts their keys. The store's lock covers them; their stripe
// locks are never contended.
//
// An *Endpoint or *Service is immutable once stored: applyOp replaces the
// table entry with an edited copy and never writes through the pointer or
// into a slice or set it holds. That is what lets Log hand the entry
// itself to the reconciler, which reads it after the log's lock is
// released, instead of a copy — and what lets core hold the same
// *Endpoint and permit set as its installed record (Op.Endpoint,
// Op.Next), the second holder of each: a verb that changes one builds a
// successor and puts it in both.
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
		if err := s.eipPool(op.Provider, op.Region).claim(op.Addr); err != nil {
			return err
		}
		// A fresh grant starts default-off with no bindings, and only a
		// stale incarnation — the address still has a live record — can
		// leave any behind: a grant walks no service otherwise.
		//
		// An address with no live record holds no bind. core's bind
		// write-locks its EIP's shard (Cloud.eipShard), the shard that
		// address's release_eip runs and journals under, so every bind of
		// an incarnation is journaled before that incarnation's release,
		// whose drain below removes it. And core returns a released
		// address to its pool only after the release is journaled, so no
		// re-grant's frame can precede it; a stale incarnation exists only
		// in a store written before that rule, under a release/re-grant
		// journal inversion (see OpReleaseEIP), and is where the previous
		// incarnation's binds, groups and names go away.
		if _, stale := s.Endpoints.Get(op.Addr); stale {
			s.drainBinds(op.Addr)
			s.forget(op.Addr)
		}
		if op.Endpoint != nil {
			s.Endpoints.Put(op.Addr, op.Endpoint)
		} else {
			s.Endpoints.Put(op.Addr, &Endpoint{Tenant: tenant, VM: op.VM, Provider: op.Provider, Region: op.Region})
		}
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
		// Mirror core: the released EIP drains out of every balancer and
		// leaves the tenant's groups and names.
		s.drainBinds(op.Addr)
		s.forget(op.Addr)
		s.Endpoints.Delete(op.Addr)
		s.eipPool(ep.Provider, ep.Region).release(op.Addr)
	case OpRequestSIP:
		if err := s.sipPool(op.Provider).claim(op.Addr); err != nil {
			return err
		}
		if _, stale := s.Services.Get(op.Addr); stale {
			s.forget(op.Addr)
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
		s.forget(op.Addr)
		s.Services.Delete(op.Addr)
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
		}
		s.Services.Put(op.SIP, &next)
	case OpUnbind:
		svc, ok := s.Services.Get(op.SIP)
		if !ok {
			return fmt.Errorf("unbind from unknown service %s", op.SIP)
		}
		if i := bindIndex(svc, op.EIP); i >= 0 {
			s.Services.Put(op.SIP, withoutBind(svc, i))
		}
	case OpSetPermit, OpPermit, OpRevoke:
		if len(op.Groups) > 0 {
			// core expands a set_permit's groups before it records the op
			return fmt.Errorf("set_permit names groups %q, not their members", op.Groups)
		}
		if ep, ok := s.Endpoints.Get(op.Target); ok && ep.Tenant == tenant {
			if op.Endpoint != nil {
				s.Endpoints.Put(op.Target, op.Endpoint)
				break
			}
			next := *ep
			next.Permits = op.Declares(ep.Permits)
			s.Endpoints.Put(op.Target, &next)
		} else if svc, ok := s.Services.Get(op.Target); ok && svc.Tenant == tenant {
			next := *svc
			next.Permits = op.Declares(svc.Permits)
			s.Services.Put(op.Target, &next)
		}
		// Otherwise no record of the tenant's is there to hold a list, and
		// the op declares nothing: core refuses a permit verb on a target
		// the tenant does not hold, so only a journal written by hand
		// names one.
	case OpSetQoS:
		s.Quotas[QuotaKey(op.Provider, tenant, op.Region)] = op.Bps
	case OpSetPotato:
		s.Potato[PotatoKey(op.Provider, tenant)] = op.Policy
	case OpSetVMEgress:
		ep, ok := s.Endpoints.Get(op.EIP)
		if !ok {
			return fmt.Errorf("egress cap for unknown endpoint %s", op.EIP)
		}
		if op.Endpoint != nil {
			s.Endpoints.Put(op.EIP, op.Endpoint)
			break
		}
		next := *ep
		next.EgressCap = op.Bps
		s.Endpoints.Put(op.EIP, &next)
	case OpCreateGroup:
		if op.Provider != "" {
			return fmt.Errorf("provider-scoped group %q (groups are tenant-wide)", op.Name)
		}
		// Core checked every member was the tenant's. One that is not
		// here was released by a record the journal placed first, whose
		// forget core ran after this group existed: it is no member.
		s.Groups[GroupKey(tenant, op.Name)] = slices.DeleteFunc(append([]addr.IP(nil), op.Members...), func(m addr.IP) bool {
			ep, ok := s.Endpoints.Get(m)
			return !ok || ep.Tenant != tenant
		})
	case OpRegisterName:
		if s.owns(tenant, op.Addr) {
			s.Names[GroupKey(tenant, op.Name)] = op.Addr
		} else { // released by an earlier record, as in OpCreateGroup
			delete(s.Names, GroupKey(tenant, op.Name))
		}
	case OpUnregisterName:
		delete(s.Names, GroupKey(tenant, op.Name))
	default:
		return fmt.Errorf("unknown verb %q", op.Verb)
	}
	return nil
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

// forget drops a from every group and name, as core does when the
// address is released. A grant runs it too when the address still has an
// owner, which only a store written before releases were journaled ahead
// of their address's return to the pool can show: under a release/re-grant
// journal inversion (see OpReleaseEIP) the stale release is skipped, and
// the grant is where its group and name effects land. Members and names
// are replaced in copies, never edited in place.
func (s *State) forget(a addr.IP) {
	for k, members := range s.Groups {
		if slices.Contains(members, a) {
			s.Groups[k] = slices.DeleteFunc(slices.Clone(members), func(m addr.IP) bool { return m == a })
		}
	}
	for k, target := range s.Names {
		if target == a {
			delete(s.Names, k)
		}
	}
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

// drainBinds unbinds eip from every service that holds it. The walk only
// finds them: a table is not written while it is walked.
func (s *State) drainBinds(eip addr.IP) {
	var bound []addr.IP
	s.Services.Ascend(0, func(sip addr.IP, svc *Service) bool {
		if bindIndex(svc, eip) >= 0 {
			bound = append(bound, sip)
		}
		return true
	})
	for _, sip := range bound {
		svc, _ := s.Services.Get(sip)
		s.Services.Put(sip, withoutBind(svc, bindIndex(svc, eip)))
	}
}

// Clone copies the state: recovery, the tests and the benchmark take one
// through Log.State and own it outright — except its endpoints and permit
// lists, which are immutable once stored and shared, so that a world
// restored from the copy installs the very entries the log declares.
func (s *State) Clone() *State {
	c := &State{
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
