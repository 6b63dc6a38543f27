package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"declnet/internal/addr"
	"declnet/internal/permit"
	"declnet/internal/topo"
)

// parityOp is one pre-generated tenant mutation: pure data, so the
// sharded (concurrent) and single-shard (sequential) arms replay exactly
// the same schedule.
type parityOp struct {
	kind  int // 0 grant, 1 release, 2 set_permit, 3 permit, 4 revoke, 5 set_qos
	host  int // host selector for grants / permit-source selector
	idx   int // granted-EIP selector for release/permit targets
	extra uint32
	bw    float64
}

// parityTenant confines one tenant to one (provider, region): its region's
// sequential address pool is then touched by no one else, so the EIPs it
// receives are identical whether its script runs interleaved with other
// tenants (sharded arm) or alone (single-shard arm).
type parityTenant struct {
	name   string
	prov   string
	region string
	hosts  []topo.NodeID
}

func parityTenants(w *topo.Fig1World) []parityTenant {
	var ts []parityTenant
	add := func(cloud, region string) {
		t := parityTenant{
			name:   "t-" + cloud + "-" + region,
			prov:   cloud,
			region: region,
		}
		for _, az := range []string{"az1", "az2"} {
			for i := 1; i <= 2; i++ {
				t.hosts = append(t.hosts, topo.HostID(cloud, region, az, i))
			}
		}
		ts = append(ts, t)
	}
	for _, r := range w.RegionsA {
		add(w.CloudA, r)
	}
	for _, r := range w.RegionsB {
		add(w.CloudB, r)
	}
	return ts
}

// runParityScript replays one tenant's script against a cloud, returning
// the tenant's surviving granted EIPs in grant order.
func runParityScript(t *testing.T, c *Cloud, pt parityTenant, script []parityOp) []EIP {
	t.Helper()
	p, ok := c.Provider(pt.prov)
	if !ok {
		t.Errorf("%s: no provider %q", pt.name, pt.prov)
		return nil
	}
	var granted []EIP
	for _, op := range script {
		switch op.kind {
		case 0:
			eip, err := c.Tenant(pt.name).RequestEIP(pt.hosts[op.host%len(pt.hosts)])
			if err != nil {
				t.Errorf("%s: grant: %v", pt.name, err)
				return granted
			}
			granted = append(granted, eip)
		case 1:
			if len(granted) == 0 {
				continue
			}
			i := op.idx % len(granted)
			if err := c.Tenant(pt.name).ReleaseEIP(granted[i]); err != nil {
				t.Errorf("%s: release: %v", pt.name, err)
				return granted
			}
			granted = append(granted[:i], granted[i+1:]...)
		case 2:
			if len(granted) < 2 {
				continue
			}
			target := granted[op.idx%len(granted)]
			src := granted[op.host%len(granted)]
			entries := []permit.Entry{
				addr.NewPrefix(src, 32),
				addr.NewPrefix(addr.IP(0xc0a80000|op.extra&0xffff), 32), // 192.168.x.x filler
			}
			if err := c.Tenant(pt.name).SetPermitList(target, entries); err != nil {
				t.Errorf("%s: set_permit: %v", pt.name, err)
				return granted
			}
		case 3:
			if len(granted) == 0 {
				continue
			}
			target := granted[op.idx%len(granted)]
			if err := c.Tenant(pt.name).Permit(target, addr.NewPrefix(addr.IP(0xc0a80000|op.extra&0xffff), 32)); err != nil {
				t.Errorf("%s: permit: %v", pt.name, err)
				return granted
			}
		case 4:
			if len(granted) == 0 {
				continue
			}
			target := granted[op.idx%len(granted)]
			// Revoking an entry that may not exist is a valid no-op.
			_ = c.Tenant(pt.name).Revoke(target, addr.NewPrefix(addr.IP(0xc0a80000|op.extra&0xffff), 32))
		case 5:
			if err := c.Tenant(pt.name).SetQoS(p.Name, pt.region, op.bw); err != nil {
				t.Errorf("%s: set_qos: %v", pt.name, err)
				return granted
			}
		}
	}
	return granted
}

// TestPropertyShardParity replays identical randomized verb schedules —
// one tenant per (provider, region) shard — against the sharded build
// (every tenant's script on its own goroutine, shards genuinely
// contended) and the single-shard build (scripts applied sequentially),
// then asserts the two control planes are indistinguishable: the same
// granted addresses, the same endpoint tables, the same permit verdicts
// for every intra- and cross-tenant pair, and the same Explain verdict
// chains. Sharding is a pure concurrency refactor; any semantic drift is
// a bug this test exists to catch. CI runs it under -race.
func TestPropertyShardParity(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			mkCloud := func(single bool) (*Cloud, *topo.Fig1World) {
				w := topo.BuildFig1(2)
				var c *Cloud
				if single {
					c = NewSingleShardCloud(w.Graph, NoDataPlane(seed))
				} else {
					c = NewCloud(w.Graph, NoDataPlane(seed))
				}
				if _, _, _, err := AddFig1Providers(c, w); err != nil {
					t.Fatal(err)
				}
				return c, w
			}
			sharded, ws := mkCloud(false)
			serial, _ := mkCloud(true)

			tenants := parityTenants(ws)
			const opsPerTenant = 120
			scripts := make([][]parityOp, len(tenants))
			for i := range tenants {
				rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
				for j := 0; j < opsPerTenant; j++ {
					scripts[i] = append(scripts[i], parityOp{
						kind:  rng.Intn(6),
						host:  rng.Intn(1 << 16),
						idx:   rng.Intn(1 << 16),
						extra: rng.Uint32(),
						bw:    float64(1+rng.Intn(10)) * 1e9,
					})
				}
			}

			// Sharded arm: every tenant mutates its own shard concurrently.
			grantedSharded := make([][]EIP, len(tenants))
			var wg sync.WaitGroup
			for i := range tenants {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					grantedSharded[i] = runParityScript(t, sharded, tenants[i], scripts[i])
				}(i)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}

			// Single-shard arm: same scripts, strictly sequential.
			grantedSerial := make([][]EIP, len(tenants))
			for i := range tenants {
				grantedSerial[i] = runParityScript(t, serial, tenants[i], scripts[i])
			}

			if sharded.Shards().Len() < len(tenants) {
				t.Errorf("sharded arm materialized %d shards, want >= %d", sharded.Shards().Len(), len(tenants))
			}
			if serial.Shards().Len() != 1 {
				t.Errorf("single-shard arm reports %d shards, want 1", serial.Shards().Len())
			}

			// Address views agree: same grants per tenant, same lookup
			// results, same per-provider endpoint counts.
			var all []EIP
			for i := range tenants {
				a, b := grantedSharded[i], grantedSerial[i]
				if len(a) != len(b) {
					t.Fatalf("%s: sharded granted %d EIPs, serial %d", tenants[i].name, len(a), len(b))
				}
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("%s: grant %d: sharded %s, serial %s", tenants[i].name, j, a[j], b[j])
					}
					ns, okS := mustProv(t, sharded, tenants[i].prov).Lookup(a[j])
					nu, okU := mustProv(t, serial, tenants[i].prov).Lookup(b[j])
					if okS != okU || ns != nu {
						t.Fatalf("%s: lookup %s: sharded (%s,%v), serial (%s,%v)",
							tenants[i].name, a[j], ns, okS, nu, okU)
					}
					all = append(all, a[j])
				}
			}
			for _, prov := range []string{ws.CloudA, ws.CloudB} {
				cs, cu := mustProv(t, sharded, prov).EndpointCount(), mustProv(t, serial, prov).EndpointCount()
				if cs != cu {
					t.Errorf("%s: endpoint count sharded %d, serial %d", prov, cs, cu)
				}
			}

			// Permit verdicts agree for every (src, dst) pair, including
			// cross-tenant and cross-provider pairs.
			for _, src := range all {
				for _, dst := range all {
					vs, vu := sharded.Admitted(src, dst), serial.Admitted(src, dst)
					if vs != vu {
						t.Fatalf("admitted(%s, %s): sharded %v, serial %v", src, dst, vs, vu)
					}
				}
			}

			// Explain verdict chains agree for each tenant's own pairs.
			for i := range tenants {
				g := grantedSharded[i]
				for j := 0; j+1 < len(g) && j < 4; j++ {
					es, errS := sharded.Tenant(tenants[i].name).Explain(g[j], g[j+1])
					eu, errU := serial.Tenant(tenants[i].name).Explain(g[j], g[j+1])
					if (errS == nil) != (errU == nil) {
						t.Fatalf("%s: explain err: sharded %v, serial %v", tenants[i].name, errS, errU)
					}
					if errS != nil {
						continue
					}
					if es.Reachable != eu.Reachable || es.RootCause != eu.RootCause {
						t.Fatalf("%s: explain %s->%s: sharded (%v,%q), serial (%v,%q)",
							tenants[i].name, g[j], g[j+1], es.Reachable, es.RootCause, eu.Reachable, eu.RootCause)
					}
					if len(es.Steps) != len(eu.Steps) {
						t.Fatalf("%s: explain steps: sharded %d, serial %d", tenants[i].name, len(es.Steps), len(eu.Steps))
					}
					for k := range es.Steps {
						if es.Steps[k].Verdict != eu.Steps[k].Verdict || es.Steps[k].Cause != eu.Steps[k].Cause {
							t.Fatalf("%s: explain step %d: sharded (%s,%q), serial (%s,%q)", tenants[i].name, k,
								es.Steps[k].Verdict, es.Steps[k].Cause, eu.Steps[k].Verdict, eu.Steps[k].Cause)
						}
					}
				}
			}
		})
	}
}

func mustProv(t *testing.T, c *Cloud, name string) *Provider {
	t.Helper()
	p, ok := c.Provider(name)
	if !ok {
		t.Fatalf("no provider %q", name)
	}
	return p
}

// TestCrossShardConnectOrdering pins the deadlock-freedom property of the
// cross-shard read protocol directly: two goroutines issue opposing
// cross-shard reads (A->B and B->A) in a tight loop while two writers
// storm each shard. With unordered locking this interleaving deadlocks
// almost immediately; with deterministic (tenant, region) ordering it
// must complete.
func TestCrossShardConnectOrdering(t *testing.T) {
	c, w, _, _, _ := fig1Cloud(t)
	a, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").SetPermitList(a, []permit.Entry{addr.NewPrefix(b, 32)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").SetPermitList(b, []permit.Entry{addr.NewPrefix(a, 32)}); err != nil {
		t.Fatal(err)
	}
	const iters = 300
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if !c.Admitted(a, b) {
				t.Error("b->a verdict flipped")
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if !c.Admitted(b, a) {
				t.Error("a->b verdict flipped")
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			e := addr.NewPrefix(addr.IP(0xc0a80000|uint32(i)), 32)
			if err := c.Tenant("acme").Permit(a, e); err != nil {
				t.Errorf("permit storm a: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			e := addr.NewPrefix(addr.IP(0xc0a90000|uint32(i)), 32)
			if err := c.Tenant("acme").Permit(b, e); err != nil {
				t.Errorf("permit storm b: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}
