package core

import (
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
			if _, err := pa.owned(tenant, eip); err != nil {
				t.Errorf("live: %s's SIP %s balances to %s: %v", tenant, sip, eip, err)
			}
		}
		for _, b := range st.Services[sip].Binds {
			if ep := st.Endpoints[b.EIP]; ep == nil || ep.Tenant != tenant {
				t.Errorf("declared: %s's SIP %s binds %s, declared as %+v", tenant, sip, b.EIP, ep)
			}
		}
	}
}
