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
	"sort"
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
type State struct {
	Seq  uint64            `json:"seq"`
	Meta map[string]string `json:"meta,omitempty"`

	Endpoints map[addr.IP]*Endpoint   `json:"endpoints,omitempty"`
	Services  map[addr.IP]*Service    `json:"services,omitempty"`
	Permits   map[addr.IP]*PermitList `json:"permits,omitempty"`

	// Quotas keys "provider|tenant|region" -> bits/s. Potato keys
	// "provider|tenant" -> policy name. ProvGroups keys
	// "provider|tenant|name"; Groups and Names key "tenant|name".
	Quotas     map[string]float64   `json:"quotas,omitempty"`
	Potato     map[string]string    `json:"potato,omitempty"`
	ProvGroups map[string][]addr.IP `json:"prov_groups,omitempty"`
	Groups     map[string][]addr.IP `json:"groups,omitempty"`
	Names      map[string]addr.IP   `json:"names,omitempty"`

	// EIPPools keys "provider/region" (the shard-region notation);
	// SIPPools keys the provider name.
	EIPPools map[string]*PoolState `json:"eip_pools,omitempty"`
	SIPPools map[string]*PoolState `json:"sip_pools,omitempty"`

	// dirty accumulates which sections applyOp has touched since the
	// last published view (see Log.View): the copy-on-write refresh
	// deep-copies only those and shares the rest with the previous
	// immutable snapshot. Never serialized.
	dirty uint32
}

// Section bits for the copy-on-write view. An op's mask may overstate
// (a no-op apply still marks) — that only costs a spurious copy.
const (
	secEndpoints uint32 = 1 << iota
	secServices
	secPermits
	secQuotas
	secPotato
	secProvGroups
	secGroups
	secNames
	secEIPPools
	secSIPPools
	secMeta
	secAll = secMeta<<1 - 1
)

// dirtyMask maps a verb to the sections its apply can touch.
func dirtyMask(verb string) uint32 {
	switch verb {
	case OpRequestEIP, OpReleaseEIP:
		return secEndpoints | secServices | secPermits | secEIPPools
	case OpRequestSIP, OpReleaseSIP:
		return secServices | secPermits | secSIPPools
	case OpBind, OpUnbind:
		return secServices
	case OpSetPermit, OpPermit, OpRevoke:
		return secPermits
	case OpSetQoS:
		return secQuotas
	case OpSetPotato:
		return secPotato
	case OpSetVMEgress:
		return secEndpoints
	case OpCreateGroup:
		return secProvGroups | secGroups
	case OpRegisterName, OpUnregisterName:
		return secNames
	}
	return secAll
}

// NewState returns an empty declared world.
func NewState() *State {
	return &State{
		Endpoints:  make(map[addr.IP]*Endpoint),
		Services:   make(map[addr.IP]*Service),
		Permits:    make(map[addr.IP]*PermitList),
		Quotas:     make(map[string]float64),
		Potato:     make(map[string]string),
		ProvGroups: make(map[string][]addr.IP),
		Groups:     make(map[string][]addr.IP),
		Names:      make(map[string]addr.IP),
		EIPPools:   make(map[string]*PoolState),
		SIPPools:   make(map[string]*PoolState),
	}
}

// Composite-key builders. "|" never appears in provider, tenant,
// region, or name strings the system generates.
func QuotaKey(provider, tenant, region string) string { return provider + "|" + tenant + "|" + region }
func PotatoKey(provider, tenant string) string        { return provider + "|" + tenant }
func GroupKey(tenant, name string) string             { return tenant + "|" + name }
func ProvGroupKey(provider, tenant, name string) string {
	return provider + "|" + tenant + "|" + name
}
func PoolKey(provider, region string) string { return provider + "/" + region }

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
		s.dirty |= secMeta
	}
	for i := range rec.Ops {
		s.dirty |= dirtyMask(rec.Ops[i].Verb)
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
		for _, svc := range s.Services {
			removeBind(svc, op.Addr)
		}
		delete(s.Permits, op.Addr)
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
		// Mirror core: the released EIP drains out of every balancer.
		for _, svc := range s.Services {
			removeBind(svc, op.Addr)
		}
		delete(s.Permits, op.Addr)
		delete(s.Endpoints, op.Addr)
		s.eipPool(ep.Provider, ep.Region).release(op.Addr)
	case OpRequestSIP:
		delete(s.Permits, op.Addr)
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
		for i := range svc.Binds {
			if svc.Binds[i].EIP == op.EIP {
				svc.Binds[i].Weight = w
				return nil
			}
		}
		svc.Binds = append(svc.Binds, Bind{EIP: op.EIP, Weight: w})
	case OpUnbind:
		svc, ok := s.Services[op.SIP]
		if !ok {
			return fmt.Errorf("unbind from unknown service %s", op.SIP)
		}
		removeBind(svc, op.EIP)
	case OpSetPermit:
		// Deduplicate while expanding: the enforcement engine's entry set
		// dedups (/32s in a map, prefixes in a trie), and the reconciler
		// compares declared vs installed entry sets — a duplicate here
		// would read as permanent drift. Entries are kept in canonical
		// (address, length) order at install time, so the reconciler's
		// steady-state comparison never sorts, and dedup is a binary
		// search instead of a linear scan.
		all := make([]addr.Prefix, 0, len(op.Entries))
		for _, e := range op.Entries {
			all = insertEntry(all, e)
		}
		for _, g := range op.Groups {
			// Same resolution order as core.setPermitList: the provider
			// the verb ran on first, then the cloud-level group table.
			members, ok := s.ProvGroups[ProvGroupKey(op.Provider, tenant, g)]
			if !ok {
				members, ok = s.Groups[GroupKey(tenant, g)]
			}
			if !ok {
				return fmt.Errorf("unknown group %q", g)
			}
			for _, m := range members {
				all = insertEntry(all, addr.NewPrefix(m, 32))
			}
		}
		s.Permits[op.Target] = &PermitList{Tenant: tenant, Entries: all}
	case OpPermit:
		pl := s.Permits[op.Target]
		if pl == nil {
			pl = &PermitList{Tenant: tenant}
			s.Permits[op.Target] = pl
		}
		for _, e := range op.Entries {
			pl.Entries = insertEntry(pl.Entries, e)
		}
	case OpRevoke:
		pl := s.Permits[op.Target]
		if pl == nil {
			return nil // revoking from an empty list is a no-op, as in core
		}
		for _, e := range op.Entries {
			for i, have := range pl.Entries {
				if have == e {
					pl.Entries = append(pl.Entries[:i], pl.Entries[i+1:]...)
					break
				}
			}
		}
	case OpSetQoS:
		s.Quotas[QuotaKey(op.Provider, tenant, op.Region)] = op.Bps
	case OpSetPotato:
		s.Potato[PotatoKey(op.Provider, tenant)] = op.Policy
	case OpSetVMEgress:
		ep, ok := s.Endpoints[op.EIP]
		if !ok {
			return fmt.Errorf("egress cap for unknown endpoint %s", op.EIP)
		}
		ep.EgressCap = op.Bps
	case OpCreateGroup:
		members := append([]addr.IP(nil), op.Members...)
		if op.Provider != "" {
			s.ProvGroups[ProvGroupKey(op.Provider, tenant, op.Name)] = members
		} else {
			s.Groups[GroupKey(tenant, op.Name)] = members
		}
	case OpRegisterName:
		s.Names[GroupKey(tenant, op.Name)] = op.Addr
	case OpUnregisterName:
		delete(s.Names, GroupKey(tenant, op.Name))
	default:
		return fmt.Errorf("unknown verb %q", op.Verb)
	}
	return nil
}

func removeBind(svc *Service, eip addr.IP) {
	for i := range svc.Binds {
		if svc.Binds[i].EIP == eip {
			svc.Binds = append(svc.Binds[:i], svc.Binds[i+1:]...)
			return
		}
	}
}

// insertEntry adds e to a canonically-sorted entry set — ordered by
// address then length — keeping it deduplicated. Binary search makes a
// full list build O(n log n) where the old contains-scan was O(n²).
func insertEntry(entries []addr.Prefix, e addr.Prefix) []addr.Prefix {
	i := sort.Search(len(entries), func(i int) bool {
		return entries[i].Addr > e.Addr ||
			(entries[i].Addr == e.Addr && entries[i].Len >= e.Len)
	})
	if i < len(entries) && entries[i] == e {
		return entries
	}
	entries = append(entries, addr.Prefix{})
	copy(entries[i+1:], entries[i:])
	entries[i] = e
	return entries
}

// cloneView publishes an immutable snapshot of s for Log.View: every
// section applyOp has touched since the previous view is deep-copied,
// everything else shares the previous view's section map. prev must be
// the previously published (immutable) view or nil; its clean sections
// are by construction identical to s's, so sharing them is safe, and
// nothing ever aliases s's own live maps. Clears the dirty mask.
func (s *State) cloneView(prev *State) *State {
	d := s.dirty
	if prev == nil {
		d = secAll
	}
	s.dirty = 0
	return s.copySections(prev, d)
}

// Clone deep-copies the state, leaving the dirty mask — the pending
// view refresh's business — alone.
func (s *State) Clone() *State { return s.copySections(nil, secAll) }

// copySections returns a state whose sections in d are deep copies of
// s's and whose other sections are prev's maps, shared. prev may be nil
// only when d is secAll.
func (s *State) copySections(prev *State, d uint32) *State {
	c := &State{Seq: s.Seq}
	if d&secMeta != 0 {
		if s.Meta != nil {
			c.Meta = make(map[string]string, len(s.Meta))
			for k, v := range s.Meta {
				c.Meta[k] = v
			}
		}
	} else {
		c.Meta = prev.Meta
	}
	if d&secEndpoints != 0 {
		c.Endpoints = make(map[addr.IP]*Endpoint, len(s.Endpoints))
		for k, v := range s.Endpoints {
			ep := *v
			c.Endpoints[k] = &ep
		}
	} else {
		c.Endpoints = prev.Endpoints
	}
	if d&secServices != 0 {
		c.Services = make(map[addr.IP]*Service, len(s.Services))
		for k, v := range s.Services {
			svc := *v
			svc.Binds = append([]Bind(nil), v.Binds...)
			c.Services[k] = &svc
		}
	} else {
		c.Services = prev.Services
	}
	if d&secPermits != 0 {
		c.Permits = make(map[addr.IP]*PermitList, len(s.Permits))
		for k, v := range s.Permits {
			pl := *v
			pl.Entries = append([]addr.Prefix(nil), v.Entries...)
			c.Permits[k] = &pl
		}
	} else {
		c.Permits = prev.Permits
	}
	if d&secQuotas != 0 {
		c.Quotas = make(map[string]float64, len(s.Quotas))
		for k, v := range s.Quotas {
			c.Quotas[k] = v
		}
	} else {
		c.Quotas = prev.Quotas
	}
	if d&secPotato != 0 {
		c.Potato = make(map[string]string, len(s.Potato))
		for k, v := range s.Potato {
			c.Potato[k] = v
		}
	} else {
		c.Potato = prev.Potato
	}
	if d&secProvGroups != 0 {
		c.ProvGroups = make(map[string][]addr.IP, len(s.ProvGroups))
		for k, v := range s.ProvGroups {
			c.ProvGroups[k] = append([]addr.IP(nil), v...)
		}
	} else {
		c.ProvGroups = prev.ProvGroups
	}
	if d&secGroups != 0 {
		c.Groups = make(map[string][]addr.IP, len(s.Groups))
		for k, v := range s.Groups {
			c.Groups[k] = append([]addr.IP(nil), v...)
		}
	} else {
		c.Groups = prev.Groups
	}
	if d&secNames != 0 {
		c.Names = make(map[string]addr.IP, len(s.Names))
		for k, v := range s.Names {
			c.Names[k] = v
		}
	} else {
		c.Names = prev.Names
	}
	if d&secEIPPools != 0 {
		c.EIPPools = make(map[string]*PoolState, len(s.EIPPools))
		for k, v := range s.EIPPools {
			c.EIPPools[k] = &PoolState{Next: v.Next, Released: append([]addr.IP(nil), v.Released...)}
		}
	} else {
		c.EIPPools = prev.EIPPools
	}
	if d&secSIPPools != 0 {
		c.SIPPools = make(map[string]*PoolState, len(s.SIPPools))
		for k, v := range s.SIPPools {
			c.SIPPools[k] = &PoolState{Next: v.Next, Released: append([]addr.IP(nil), v.Released...)}
		}
	} else {
		c.SIPPools = prev.SIPPools
	}
	return c
}
