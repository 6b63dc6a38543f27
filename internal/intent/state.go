// State is the declared world: the fold of every journaled mutation,
// mirroring exactly the state core's verb bodies build — endpoints,
// services and their binds, permit lists (group references expanded at
// apply time, as core expands them at verb time), quotas, potato
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
	Tenant    string  `json:"tenant"`
	VM        string  `json:"vm"`
	Provider  string  `json:"provider"`
	Region    string  `json:"region"`
	EgressCap float64 `json:"egress_cap,omitempty"`
}

// Bind is one declared EIP -> SIP binding (weight already clamped the
// way the balancer clamps it, so desired and actual compare directly).
type Bind struct {
	EIP    addr.IP `json:"eip"`
	Weight int     `json:"weight"`
}

// Service is the declared record of one granted SIP.
type Service struct {
	Tenant   string `json:"tenant"`
	Provider string `json:"provider"`
	Binds    []Bind `json:"binds,omitempty"`
}

// PermitList is the declared permit list guarding one target, group
// references already expanded.
type PermitList struct {
	Tenant  string        `json:"tenant"`
	Entries []addr.Prefix `json:"entries,omitempty"`
}

// PoolState is one address pool's allocation cursor: the next-fresh
// address and the free list of released ones, in release order. It is
// rebuilt from the journal's grant/release ops so a recovered pool
// hands out exactly the addresses the crashed one would have.
type PoolState struct {
	Next     addr.IP   `json:"next"`
	Released []addr.IP `json:"released,omitempty"`
}

// claim folds "this address was granted" into the cursor. The journal
// serializes on append order, which under concurrent shards may differ
// from pool-allocation order, so claim tolerates out-of-order grants:
// a claim past the cursor skip-fills the gap into Released (the gap
// addresses' own claims remove them again), and a claim below the
// cursor that is not in Released was already skip-filled past. Serial
// schedules replay byte-exact.
func (ps *PoolState) claim(a addr.IP) {
	if ps.Next == 0 {
		ps.Next = a
	}
	for i, r := range ps.Released {
		if r == a {
			ps.Released = append(ps.Released[:i], ps.Released[i+1:]...)
			return
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
}

// release appends to the free list (FIFO, matching addr.HostPool).
func (ps *PoolState) release(a addr.IP) {
	ps.Released = append(ps.Released, a)
}

// State is the full declared world at one journal sequence number.
// JSON-serializable whole: the snapshot file is exactly this struct.
//
// An *Endpoint, *Service or *PermitList is immutable once stored: applyOp
// replaces the map entry with an edited copy and never writes through the
// pointer or into a slice it holds. That is what lets Log hand the entry
// itself to the reconciler, which reads it after the log's lock is
// released, instead of a copy.
type State struct {
	Seq  uint64            `json:"seq"`
	Meta map[string]string `json:"meta,omitempty"`

	Endpoints map[addr.IP]*Endpoint   `json:"endpoints,omitempty"`
	Services  map[addr.IP]*Service    `json:"services,omitempty"`
	Permits   map[addr.IP]*PermitList `json:"permits,omitempty"`

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
		Endpoints: make(map[addr.IP]*Endpoint),
		Services:  make(map[addr.IP]*Service),
		Permits:   make(map[addr.IP]*PermitList),
		Quotas:    make(map[string]float64),
		Potato:    make(map[string]string),
		Groups:    make(map[string][]addr.IP),
		Names:     make(map[string]addr.IP),
		EIPPools:  make(map[string]*PoolState),
		SIPPools:  make(map[string]*PoolState),
	}
}

// Composite-key builders. "|" never appears in provider, tenant,
// region, or name strings the system generates.
func QuotaKey(provider, tenant, region string) string { return provider + "|" + tenant + "|" + region }
func PotatoKey(provider, tenant string) string        { return provider + "|" + tenant }
func GroupKey(tenant, name string) string             { return tenant + "|" + name }
func PoolKey(provider, region string) string          { return provider + "/" + region }

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
		// A fresh grant starts default-off with no bindings. Normally the
		// release already cleaned these up; under a concurrent
		// release/re-grant journal inversion (see OpReleaseEIP) this is
		// where the previous incarnation's leftovers go away.
		s.drainBinds(op.Addr)
		delete(s.Permits, op.Addr)
		if _, stale := s.Endpoints[op.Addr]; stale {
			s.forget(op.Addr)
		}
		s.Endpoints[op.Addr] = &Endpoint{
			Tenant: tenant, VM: op.VM, Provider: op.Provider, Region: op.Region,
		}
		s.eipPool(op.Provider, op.Region).claim(op.Addr)
	case OpReleaseEIP:
		ep, ok := s.Endpoints[op.Addr]
		if !ok {
			return fmt.Errorf("release of unknown endpoint %s", op.Addr)
		}
		if ep.Tenant != tenant {
			// Stale record: the journal serializes on append order, which
			// under concurrent shards can place a release after the
			// re-grant that reused its address. The re-grant's apply
			// already cleaned up; the release's pool effect was consumed
			// by the re-claim. Drop it.
			return nil
		}
		// Mirror core: the released EIP drains out of every balancer and
		// leaves the tenant's groups and names.
		s.drainBinds(op.Addr)
		delete(s.Permits, op.Addr)
		s.forget(op.Addr)
		delete(s.Endpoints, op.Addr)
		s.eipPool(ep.Provider, ep.Region).release(op.Addr)
	case OpRequestSIP:
		delete(s.Permits, op.Addr)
		if _, stale := s.Services[op.Addr]; stale {
			s.forget(op.Addr)
		}
		s.Services[op.Addr] = &Service{Tenant: tenant, Provider: op.Provider}
		s.sipPool(op.Provider).claim(op.Addr)
	case OpReleaseSIP:
		svc, ok := s.Services[op.Addr]
		if !ok {
			return fmt.Errorf("release of unknown service %s", op.Addr)
		}
		if svc.Tenant != tenant {
			return nil // stale record, as in OpReleaseEIP
		}
		delete(s.Permits, op.Addr)
		s.forget(op.Addr)
		delete(s.Services, op.Addr)
		s.sipPool(svc.Provider).release(op.Addr)
	case OpBind:
		svc, ok := s.Services[op.SIP]
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
		s.Services[op.SIP] = &next
	case OpUnbind:
		svc, ok := s.Services[op.SIP]
		if !ok {
			return fmt.Errorf("unbind from unknown service %s", op.SIP)
		}
		if i := bindIndex(svc, op.EIP); i >= 0 {
			s.Services[op.SIP] = withoutBind(svc, i)
		}
	case OpSetPermit:
		if op.Derived {
			s.Permits[op.Target] = &PermitList{Tenant: tenant, Entries: op.Next}
			break
		}
		all := slices.Clip(op.Entries) // appends below copy, never write into the op
		for _, g := range op.Groups {
			members, ok := s.Groups[GroupKey(tenant, g)]
			if !ok {
				return fmt.Errorf("unknown group %q", g)
			}
			for _, m := range members {
				all = append(all, addr.NewPrefix(m, 32))
			}
		}
		// The same call core's set_permit makes on the same input.
		s.Permits[op.Target] = &PermitList{Tenant: tenant, Entries: addr.CanonicalPrefixes(all)}
	case OpPermit, OpRevoke:
		pl := s.Permits[op.Target]
		if pl == nil && op.Verb == OpRevoke {
			return nil // revoking from an empty list is a no-op, as in core
		}
		next := &PermitList{Tenant: tenant}
		if pl != nil {
			*next = *pl
		}
		if op.Derived && addr.EqualPrefixes(next.Entries, op.Prev) {
			next.Entries = op.Next
		} else {
			next.Entries = op.Successor(next.Entries)
		}
		s.Permits[op.Target] = next
	case OpSetQoS:
		s.Quotas[QuotaKey(op.Provider, tenant, op.Region)] = op.Bps
	case OpSetPotato:
		s.Potato[PotatoKey(op.Provider, tenant)] = op.Policy
	case OpSetVMEgress:
		ep, ok := s.Endpoints[op.EIP]
		if !ok {
			return fmt.Errorf("egress cap for unknown endpoint %s", op.EIP)
		}
		next := *ep
		next.EgressCap = op.Bps
		s.Endpoints[op.EIP] = &next
	case OpCreateGroup:
		if op.Provider != "" {
			return fmt.Errorf("provider-scoped group %q (groups are tenant-wide)", op.Name)
		}
		// Core checked every member was the tenant's. One that is not
		// here was released by a record the journal placed first, whose
		// forget core ran after this group existed: it is no member.
		s.Groups[GroupKey(tenant, op.Name)] = slices.DeleteFunc(append([]addr.IP(nil), op.Members...), func(m addr.IP) bool {
			ep, ok := s.Endpoints[m]
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
// owner: under a release/re-grant journal inversion (see OpReleaseEIP)
// the stale release is skipped, and the grant is where its group and
// name effects land. Members and names are replaced in copies, never
// edited in place.
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

// owns reports whether a is one of tenant's endpoints or services.
func (s *State) owns(tenant string, a addr.IP) bool {
	if ep, ok := s.Endpoints[a]; ok {
		return ep.Tenant == tenant
	}
	svc, ok := s.Services[a]
	return ok && svc.Tenant == tenant
}

// drainBinds unbinds eip from every service that holds it.
func (s *State) drainBinds(eip addr.IP) {
	for sip, svc := range s.Services {
		if i := bindIndex(svc, eip); i >= 0 {
			s.Services[sip] = withoutBind(svc, i)
		}
	}
}

// Clone copies the state: recovery, the tests and the benchmark take one
// through Log.State and own it outright — except its permit lists, which
// are immutable once stored and shared, so that a world restored from the
// copy installs the very slices the log declares.
func (s *State) Clone() *State {
	c := &State{
		Seq:       s.Seq,
		Meta:      maps.Clone(s.Meta),
		Endpoints: make(map[addr.IP]*Endpoint, len(s.Endpoints)),
		Services:  make(map[addr.IP]*Service, len(s.Services)),
		Permits:   make(map[addr.IP]*PermitList, len(s.Permits)),
		Quotas:    maps.Clone(s.Quotas),
		Potato:    maps.Clone(s.Potato),
		Groups:    make(map[string][]addr.IP, len(s.Groups)),
		Names:     maps.Clone(s.Names),
		EIPPools:  make(map[string]*PoolState, len(s.EIPPools)),
		SIPPools:  make(map[string]*PoolState, len(s.SIPPools)),
	}
	for k, v := range s.Endpoints {
		ep := *v
		c.Endpoints[k] = &ep
	}
	for k, v := range s.Services {
		svc := *v
		svc.Binds = append([]Bind(nil), v.Binds...)
		c.Services[k] = &svc
	}
	maps.Copy(c.Permits, s.Permits)
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
