package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/topo"
)

// TestBindNeverInstallsAReleasedEIP races bind against release_eip. Two
// tenants each run one writer that binds the tenant's current EIP to its
// SIP, over and over, and one that releases that EIP and requests
// another, all from one region's pool, so a released address goes
// straight back out, often to the other tenant. bind checks that the EIP
// is the tenant's and then installs it, and release_eip runs under the
// EIP's shard, not the SIP's: a release landing between the two left a
// released address bound, live and in the journal, and once the pool
// re-granted it another tenant's endpoint sat behind this tenant's SIP.
// Every bind the journal holds must name an EIP its tenant held at that
// point of the journal, and every backend of every SIP must be the SIP's
// tenant's, live and declared.
func TestBindNeverInstallsAReleasedEIP(t *testing.T) {
	dir := t.TempDir()
	c, w, pa, _, _ := fig1Cloud(t)
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c.EnableIntent(l)
	vm := topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)

	const releases = 400
	sips := map[string]SIP{}
	var wg sync.WaitGroup
	for _, tenant := range []string{"acme", "globex"} {
		ten := c.Tenant(tenant)
		sip, err := ten.RequestSIP(pa.Name)
		if err != nil {
			t.Fatal(err)
		}
		eip, err := ten.RequestEIP(vm)
		if err != nil {
			t.Fatal(err)
		}
		sips[tenant] = sip
		var cur atomic.Uint32
		cur.Store(uint32(eip))
		released := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-released:
					return
				default:
					_ = ten.Bind(EIP(cur.Load()), sip, 1) // refused once the EIP is gone
				}
			}
		}()
		go func() {
			defer wg.Done()
			defer close(released)
			for i := 0; i < releases; i++ {
				if err := ten.ReleaseEIP(EIP(cur.Load())); err != nil {
					t.Error(err)
					return
				}
				eip, err := ten.RequestEIP(vm)
				if err != nil {
					t.Error(err)
					return
				}
				cur.Store(uint32(eip))
			}
		}()
	}
	within(t, 2*time.Minute, async(wg.Wait), "the writers (deadlock?)")

	// A release may follow the other tenant's re-grant of its address in
	// the journal; State drops it then, and so does this model.
	owner := map[addr.IP]string{}
	for i, rec := range journalRecords(t, dir) {
		for _, op := range rec.Ops {
			switch op.Verb {
			case intent.OpRequestEIP:
				owner[op.Addr] = rec.Tenant
			case intent.OpReleaseEIP:
				if owner[op.Addr] == rec.Tenant {
					delete(owner, op.Addr)
				}
			case intent.OpBind:
				if owner[op.EIP] != rec.Tenant {
					t.Errorf("journal record %d: %s binds %s, held by %q at that point", i, rec.Tenant, op.EIP, owner[op.EIP])
				}
			}
		}
	}
	st := l.State()
	for tenant, sip := range sips {
		svc, _ := pa.services.Get(sip)
		for eip := range svc.balancer.Weights() {
			if _, err := c.owned(tenant, eip); err != nil {
				t.Errorf("live: %s's SIP %s balances to %s: %v", tenant, sip, eip, err)
			}
		}
		decl, _ := st.Services.Get(sip)
		for _, b := range decl.Binds {
			if ep, _ := st.Endpoints.Get(b.EIP); ep == nil || ep.Tenant != tenant {
				t.Errorf("declared: %s's SIP %s binds %s, declared as %+v", tenant, sip, b.EIP, ep)
			}
		}
	}
}

// TestGroupsAndNamesNeverKeepAReleasedAddress races create_group and
// register_name, which run under the tenant's region-less shard, against
// release_eip, which runs under the EIP's region shard. Each verb checks
// and folds under the declared state's lock, so a group or name op either
// sees the address released and refuses it, or folds first and the
// release's fold drops it again: after every round no group member and no
// name target is an address the tenant no longer holds, and a world
// restored from the store digests like the live one.
func TestGroupsAndNamesNeverKeepAReleasedAddress(t *testing.T) {
	dir := t.TempDir()
	c, w, _, _, _ := fig1Cloud(t)
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableIntent(l)
	acme := c.Tenant("acme")
	for round := 0; round < 50; round++ {
		var eips []EIP
		for i := 0; i < 4; i++ {
			eip, err := acme.RequestEIP(topo.HostID(w.CloudA, w.RegionsA[round%2], []string{"az1", "az2"}[i%2], 1+i/2))
			if err != nil {
				t.Fatal(err)
			}
			eips = append(eips, eip)
		}
		var wg sync.WaitGroup
		for i, eip := range eips {
			wg.Add(3)
			go func() { // every other address stays held into the next round
				defer wg.Done()
				if i%2 == 0 && acme.ReleaseEIP(eip) != nil {
					t.Error("release refused")
				}
			}()
			go func() { defer wg.Done(); _ = acme.Register(fmt.Sprintf("svc%d", i), eip) }() // refused once released
			go func() { defer wg.Done(); _ = acme.CreateGroup(fmt.Sprintf("fleet%d", i%2), eips...) }()
		}
		wg.Wait()
		st := l.State()
		held := func(a addr.IP) bool { ep, ok := st.Endpoints.Get(a); return ok && ep.Tenant == "acme" }
		for key, members := range st.Groups {
			if i := slices.IndexFunc(members, func(m addr.IP) bool { return !held(m) }); i >= 0 {
				t.Fatalf("round %d: group %s keeps released member %s", round, key, members[i])
			}
		}
		for key, a := range st.Names {
			if !held(a) {
				t.Fatalf("round %d: name %s keeps released address %s", round, key, a)
			}
		}
	}
	checkRestartDigest(t, c, l, dir)
}
