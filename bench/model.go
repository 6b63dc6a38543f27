package main

import (
	"fmt"
	"net/http"
	"strings"

	"declnet/internal/api"
)

// Model is the client's view of the world: which address each slot was
// granted, and what every response must therefore look like. A tenant's
// model is touched only by the worker that owns the tenant, so two
// workers completing out of order never share a slot.
type Model struct {
	lay     *layout
	tenants []*tenantModel
}

type tenantModel struct {
	name       string
	home, peer int      // indexes into regions
	addr       []string // slot -> granted address, "" while unbound
	sips       [stableSIPs + 1]string
	base       []string // the home and peer /16s, every stable permit list's base entries
	eips, nsip int      // acknowledged grants minus releases
}

func newModel(lay *layout) *Model {
	m := &Model{lay: lay, tenants: make([]*tenantModel, lay.spec.Tenants)}
	for t := range m.tenants {
		m.tenants[t] = &tenantModel{
			name: tenantName(int32(t)),
			home: t % 4, peer: (t%4 + 2) % 4,
			addr: make([]string, lay.slots()),
		}
	}
	return m
}

// prefix16 is the /16 holding a granted address — the region's block,
// derived the way internal/scale derives it: from the first grant.
func prefix16(ip string) (string, error) {
	parts := strings.Split(ip, ".")
	if len(parts) != 4 {
		return "", fmt.Errorf("bench: %q is not a dotted quad", ip)
	}
	return parts[0] + "." + parts[1] + ".0.0/16", nil
}

// grant codes in a batch call's side table: which slot op i's granted
// address binds to.
const noGrant = -1

func sipGrant(s int) int32 { return int32(-2 - s) }

// boundCall is a Call plus the model-side bookkeeping Done needs.
type boundCall struct {
	Call
	grants []int32 // per batch op: endpoint slot, sipGrant(s), or noGrant
}

// Bind turns an abstract op into a concrete call using the addresses
// granted so far. It fails only if the generator targeted a slot that
// holds no address — a harness bug, not a daemon error.
func (m *Model) Bind(op Op) (*boundCall, error) {
	tm := m.tenants[op.Tenant]
	lay := m.lay
	c := &boundCall{Call: Call{Kind: op.Kind, Tenant: tm.name}}
	need := func(slot int32) (string, error) {
		if a := tm.addr[slot]; a != "" {
			return a, nil
		}
		return "", fmt.Errorf("bench: %s %s: slot %d holds no address", tm.name, op.Kind, slot)
	}
	var err error
	switch op.Kind {
	case Probe, Explain:
		if c.Src, err = need(op.A); err != nil {
			return nil, err
		}
		if op.SIP {
			c.Dst = tm.sips[op.B]
		} else if c.Dst, err = need(op.B); err != nil {
			return nil, err
		}
	case SetPermit:
		if c.Target, err = need(op.A); err != nil {
			return nil, err
		}
		c.Entries = tm.base
		if op.Flag {
			c.Entries = append(append([]string(nil), tm.base...), extraEntry)
		}
	case RequestEIP:
		c.VM = lay.vm(tm.home, int(op.B))
	case ReleaseEIP:
		if c.EIP, err = need(lay.ephSlot(op.A)); err != nil {
			return nil, err
		}
	case Bind:
		if c.EIP, err = need(lay.sipBackend(stableSIPs, int(op.A))); err != nil {
			return nil, err
		}
		c.SIP, c.Weight = tm.sips[stableSIPs], int(op.B)
	case SetQoS:
		r := regions[tm.home]
		c.Provider, c.Region, c.Bps = r.provider, r.region, float64(1+op.A)*1e8
	case StormGrant:
		for i := 0; i < stormSlots; i++ {
			c.Ops = append(c.Ops, api.BatchOpRequest{Op: "request_eip", VM: lay.vm(tm.home, i)})
			c.grants = append(c.grants, lay.stormSlot(int32(i)))
		}
		for i := 0; i < stormSlots; i++ {
			c.Ops = append(c.Ops, api.BatchOpRequest{Op: "set_permit", Target: fmt.Sprintf("$%d", i), Entries: tm.base})
			c.grants = append(c.grants, noGrant)
		}
	case StormRelease:
		for i := 0; i < stormSlots; i++ {
			a, err := need(lay.stormSlot(int32(i)))
			if err != nil {
				return nil, err
			}
			c.Ops = append(c.Ops, api.BatchOpRequest{Op: "release_eip", EIP: a})
			c.grants = append(c.grants, noGrant)
		}
	case setupFirst:
		c.Ops = []api.BatchOpRequest{
			{Op: "request_eip", VM: lay.vm(tm.home, lay.place[0])},
			{Op: "request_eip", VM: lay.vm(tm.peer, lay.place[4])},
		}
		c.grants = []int32{0, 4}
	case setupChunk:
		var listed []int // batch indexes whose grant gets the base permit list
		for s := op.A; s < op.B; s++ {
			if s == 0 || s == 4 {
				continue // granted by setupFirst
			}
			region := tm.home
			if lay.peer[s] {
				region = tm.peer
			}
			if !lay.iso[s] {
				listed = append(listed, len(c.Ops))
			}
			c.Ops = append(c.Ops, api.BatchOpRequest{Op: "request_eip", VM: lay.vm(region, lay.place[s])})
			c.grants = append(c.grants, s)
		}
		for _, i := range listed {
			c.Ops = append(c.Ops, api.BatchOpRequest{Op: "set_permit", Target: fmt.Sprintf("$%d", i), Entries: tm.base})
			c.grants = append(c.grants, noGrant)
		}
	case setupSIPs:
		for s := 0; s <= stableSIPs; s++ {
			c.Ops = append(c.Ops, api.BatchOpRequest{Op: "request_sip", Provider: regions[tm.home].provider})
			c.grants = append(c.grants, sipGrant(s))
		}
		for s := 0; s <= stableSIPs; s++ {
			c.Ops = append(c.Ops, api.BatchOpRequest{Op: "set_permit", Target: fmt.Sprintf("$%d", s), Entries: tm.base})
			c.grants = append(c.grants, noGrant)
		}
		for s := 0; s < stableSIPs; s++ {
			for b := 0; b < backendsPerSIP; b++ {
				a, err := need(lay.sipBackend(s, b))
				if err != nil {
					return nil, err
				}
				c.Ops = append(c.Ops, api.BatchOpRequest{Op: "bind", EIP: a, SIP: fmt.Sprintf("$%d", s), Weight: 1})
				c.grants = append(c.grants, noGrant)
			}
		}
	case setupLists:
		// Batch permit entries are literal CIDRs, so an isolated
		// endpoint's own /32 can only be listed once its address is known.
		for _, s := range lay.isolated {
			a, err := need(s)
			if err != nil {
				return nil, err
			}
			c.Ops = append(c.Ops, api.BatchOpRequest{Op: "set_permit", Target: a, Entries: []string{a + "/32"}})
			c.grants = append(c.grants, noGrant)
		}
		for _, s := range []int32{0, 4} {
			c.Ops = append(c.Ops, api.BatchOpRequest{Op: "set_permit", Target: tm.addr[s], Entries: tm.base})
			c.grants = append(c.grants, noGrant)
		}
	default:
		return nil, fmt.Errorf("bench: unknown op kind %d", op.Kind)
	}
	return c, nil
}

// Done checks a response against the model and binds what it granted.
// A modelled 403 is a success; anything else off-model is an error.
func (m *Model) Done(op Op, c *boundCall, r *Result) error {
	if r.Err != nil {
		return r.Err
	}
	tm := m.tenants[op.Tenant]
	want := http.StatusOK
	if op.Kind == Probe && op.Flag {
		want = http.StatusForbidden
	}
	if r.Status != want {
		return fmt.Errorf("bench: %s %s: status %d, model says %d", tm.name, op.Kind, r.Status, want)
	}
	switch op.Kind {
	case Probe:
		if !op.Flag && !r.HasRTT {
			return fmt.Errorf("bench: %s probe %s -> %s: 200 without an rtt", tm.name, c.Src, c.Dst)
		}
	case Explain:
		if r.Reachable == op.Flag {
			return fmt.Errorf("bench: %s explain %s -> %s: reachable=%v, model says %v", tm.name, c.Src, c.Dst, r.Reachable, !op.Flag)
		}
	case RequestEIP:
		if r.Addr == "" {
			return fmt.Errorf("bench: %s request_eip: no address granted", tm.name)
		}
		tm.addr[m.lay.ephSlot(op.A)] = r.Addr
		tm.eips++
	case ReleaseEIP:
		tm.addr[m.lay.ephSlot(op.A)] = ""
		tm.eips--
	}
	if len(c.Ops) == 0 {
		return nil
	}
	if r.Applied != len(c.Ops) || len(r.Addrs) != len(c.Ops) {
		return fmt.Errorf("bench: %s %s: applied %d of %d ops", tm.name, op.Kind, r.Applied, len(c.Ops))
	}
	for i, g := range c.grants {
		if g == noGrant {
			continue
		}
		a := r.Addrs[i]
		if a == "" {
			return fmt.Errorf("bench: %s %s: op %d granted no address", tm.name, op.Kind, i)
		}
		if g >= 0 {
			tm.addr[g] = a
			tm.eips++
		} else {
			tm.sips[-2-g] = a
			tm.nsip++
		}
	}
	switch op.Kind {
	case StormRelease:
		for i := int32(0); i < stormSlots; i++ {
			tm.addr[m.lay.stormSlot(i)] = ""
		}
		tm.eips -= stormSlots
	case setupFirst:
		home, err := prefix16(tm.addr[0])
		if err != nil {
			return err
		}
		peer, err := prefix16(tm.addr[4])
		if err != nil {
			return err
		}
		tm.base = []string{home, peer}
	}
	return nil
}

// setupOps is one tenant's onboarding: the batches, in the order they
// must run (later batches name addresses earlier ones granted).
func setupOps(lay *layout, tenant int32) []Op {
	ops := []Op{{Kind: setupFirst, Tenant: tenant}}
	for a := 0; a < lay.spec.Endpoints; a += batchEndpoints {
		b := a + batchEndpoints
		if b > lay.spec.Endpoints {
			b = lay.spec.Endpoints
		}
		ops = append(ops, Op{Kind: setupChunk, Tenant: tenant, A: int32(a), B: int32(b)})
	}
	return append(ops, Op{Kind: setupSIPs, Tenant: tenant}, Op{Kind: setupLists, Tenant: tenant})
}
