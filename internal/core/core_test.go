package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/permit"
	"declnet/internal/slo"
	"declnet/internal/topo"
)

func pfx(s string) addr.Prefix { return addr.MustParsePrefix(s) }

// fig1Cloud builds the Fig-1 world with providers for both clouds and the
// on-prem site, over no data plane (the simulated plane's tests build
// theirs in package core_test, sim_test.go).
func fig1Cloud(t *testing.T) (*Cloud, *topo.Fig1World, *Provider, *Provider, *Provider) {
	return fig1CloudOn(t, NoDataPlane(1))
}

// fig1CloudOn is fig1Cloud over the given data plane.
func fig1CloudOn(t *testing.T, plane DataPlane) (*Cloud, *topo.Fig1World, *Provider, *Provider, *Provider) {
	t.Helper()
	w := topo.BuildFig1(2)
	c := NewCloud(w.Graph, plane)
	pa, pb, po, err := AddFig1Providers(c, w)
	if err != nil {
		t.Fatal(err)
	}
	return c, w, pa, pb, po
}

// fakePlane is NoDataPlane with what a node agent holds for the
// reconciler: the quotas set_qos installs, which a test can drift behind
// the declared state's back, and permit updates deferred at a failed
// enforcement point until land installs them.
type fakePlane struct {
	DataPlane
	mu      sync.Mutex
	quotas  map[string]float64 // by intent.QuotaKey
	down    map[topo.NodeID]bool
	pending map[addr.IP]*Provider
	marks   map[addr.IP]bool
}

func newFakePlane() *fakePlane {
	return &fakePlane{DataPlane: NoDataPlane(1), quotas: make(map[string]float64),
		down: make(map[topo.NodeID]bool), pending: make(map[addr.IP]*Provider)}
}

func (q *fakePlane) Apply(tenant string, op *intent.Op) {
	if op.Verb == intent.OpSetQoS {
		q.mu.Lock()
		q.quotas[intent.QuotaKey(op.Provider, tenant, op.Region)] = op.Bps
		q.mu.Unlock()
	}
}

func (q *fakePlane) Quota(provider, tenant, region string) (float64, int, int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.quotas[intent.QuotaKey(provider, tenant, region)], 0, 0, true
}

// zero drifts an installed quota to 0, reporting whether one was there.
func (q *fakePlane) zero(provider, tenant, region string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	k := intent.QuotaKey(provider, tenant, region)
	if _, ok := q.quotas[k]; !ok {
		return false
	}
	q.quotas[k] = 0
	return true
}

func (q *fakePlane) Reachable(n topo.NodeID) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return !q.down[n]
}

func (q *fakePlane) setDown(n topo.NodeID, down bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.down[n] = down
}

func (q *fakePlane) DeferPermit(p *Provider, _ string, target addr.IP, _ int, _ bool, _ topo.NodeID) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.pending[target] = p
}

func (q *fakePlane) PendingPermit(target addr.IP) (time.Duration, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, ok := q.pending[target]
	return 0, ok
}

func (q *fakePlane) TakeMarks() map[addr.IP]bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	marks := q.marks
	q.marks = nil
	return marks
}

// land installs the list target's record declares now, ending its
// deferral and marking it for the reconciler.
func (q *fakePlane) land(c *Cloud, target addr.IP) {
	q.mu.Lock()
	defer q.mu.Unlock()
	p := q.pending[target]
	delete(q.pending, target)
	ep, _ := c.decl.Endpoint(target)
	p.Permits.Install(target, ep.Permits, uint64(len(ep.Permits.Entries())))
	if q.marks == nil {
		q.marks = make(map[addr.IP]bool)
	}
	q.marks[target] = true
}

// connect runs connect's control-plane half, with no data-plane half.
func connect(c *Cloud, tenant string, src EIP, dst addr.IP) error {
	return c.Tenant(tenant).Connect(src, dst, func(*slo.Op, *Route) error { return nil })
}

func TestRequestEIPValidation(t *testing.T) {
	c, w, pa, _, _ := fig1Cloud(t)
	vm := topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)
	eip, err := c.Tenant("acme").RequestEIP(vm)
	if err != nil {
		t.Fatal(err)
	}
	if eip == 0 {
		t.Fatal("zero EIP granted")
	}
	// Region block contains the EIP.
	block, ok := pa.RegionBlock(w.RegionsA[0])
	if !ok || !block.Contains(eip) {
		t.Fatalf("EIP %s outside region block %s", eip, block)
	}
	if _, err := c.Tenant("acme").RequestEIP("no-such-vm"); err == nil {
		t.Fatal("unknown VM granted an EIP")
	}
	if _, err := c.Tenant("acme").RequestEIP(topo.RegionRouterID(w.CloudA, w.RegionsA[0])); err == nil {
		t.Fatal("non-host node granted an EIP")
	}
	// A VM of cloud B cannot get an EIP from provider A.
	if _, err := c.Apply("acme", intent.Op{Verb: intent.OpRequestEIP, Provider: pa.Name, VM: string(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))}); err == nil {
		t.Fatal("cross-provider EIP grant succeeded")
	}
}

func TestCrossTenantIsolation(t *testing.T) {
	c, w, _, _, _ := fig1Cloud(t)
	victim, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	attacker, _ := c.Tenant("evil").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	friend, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 2))
	c.Tenant("acme").SetPermitList(victim, []permit.Entry{addr.NewPrefix(friend, 32)})
	if c.Admitted(attacker, victim) {
		t.Fatal("unpermitted tenant admitted")
	}
	if !c.Admitted(friend, victim) {
		t.Fatal("permitted source rejected")
	}
	// evil cannot edit acme's permit list.
	if err := c.Tenant("evil").SetPermitList(victim, []permit.Entry{addr.NewPrefix(attacker, 32)}); err == nil {
		t.Fatal("cross-tenant permit-list mutation succeeded")
	}
}

func TestGroupsExtension(t *testing.T) {
	c, w, _, pb, _ := fig1Cloud(t)
	a, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	bb, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 2))
	dst, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az2", 1))
	if err := c.Tenant("acme").CreateGroup("web", a, bb); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").SetPermitList(dst, nil, "web"); err != nil {
		t.Fatal(err)
	}
	if !c.Admitted(a, dst) || !c.Admitted(bb, dst) {
		t.Fatal("group members not admitted")
	}
	if err := c.Tenant("acme").SetPermitList(dst, nil, "missing-group"); err == nil {
		t.Fatal("unknown group accepted")
	}
	// Groups may only contain the tenant's own endpoints.
	other, _ := c.Tenant("rival").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[1], "az1", 1))
	if err := c.Tenant("acme").CreateGroup("bad", other); err == nil {
		t.Fatal("foreign EIP accepted into group")
	}
	// Groups have one, tenant-wide namespace.
	op := intent.Op{Verb: intent.OpCreateGroup, Provider: pb.Name, Name: "web", Members: []addr.IP{a}}
	if _, err := c.Apply("acme", op); err == nil {
		t.Fatal("provider-scoped create_group accepted")
	}
}

func TestReleaseEIPTearsDownState(t *testing.T) {
	c, w, _, pb, _ := fig1Cloud(t)
	be, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	sip, _ := c.Tenant("acme").RequestSIP(pb.Name)
	c.Tenant("acme").Bind(be, sip, 1)
	c.Tenant("acme").SetPermitList(be, []permit.Entry{pfx("0.0.0.0/0")})
	if err := c.Tenant("acme").ReleaseEIP(be); err != nil {
		t.Fatal(err)
	}
	// Permit state gone, balancer drained, address reusable.
	if c.Admitted(addr.MustParseIP("1.2.3.4"), be) {
		t.Fatal("released EIP still admits traffic")
	}
	bal, _ := pb.Service(sip)
	if len(bal.Backends()) != 0 {
		t.Fatal("released EIP still bound to SIP")
	}
	be2, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 2))
	if be2 != be {
		t.Fatalf("address not recycled: %s vs %s", be2, be)
	}
	if err := c.Tenant("acme").ReleaseEIP(be2); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").ReleaseEIP(be2); err == nil {
		t.Fatal("double release succeeded")
	}
}

func TestProbe(t *testing.T) {
	c, w, _, _, _ := fig1Cloud(t)
	src, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	dst, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	if _, _, err := c.Tenant("acme").Probe(src, dst); err == nil {
		t.Fatal("probe admitted without permit list")
	}
	c.Tenant("acme").SetPermitList(dst, []permit.Entry{addr.NewPrefix(src, 32)})
	rtt, _, err := c.Tenant("acme").Probe(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 {
		t.Fatalf("RTT = %v", rtt)
	}
}

func TestDuplicateProvider(t *testing.T) {
	w := topo.BuildFig1(1)
	c := NewCloud(w.Graph, NoDataPlane(1))
	if _, err := c.AddProvider(w.CloudA, Config{EIPBase: pfx("100.64.0.0/10"), SIPBase: pfx("100.127.0.0/16")}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddProvider(w.CloudA, Config{EIPBase: pfx("104.0.0.0/8"), SIPBase: pfx("104.255.0.0/16")}); err == nil {
		t.Fatal("duplicate provider accepted")
	}
	if _, ok := c.Provider("nope"); ok {
		t.Fatal("unknown provider found")
	}
}

// TestWideSIPBaseRefused: a provider's SIP pool is one /16 at most, the
// farthest apart the journal replays two grants of one pool.
func TestWideSIPBaseRefused(t *testing.T) {
	w := topo.BuildFig1(1)
	c := NewCloud(w.Graph, NoDataPlane(1))
	if _, err := c.AddProvider(w.CloudA, Config{EIPBase: pfx("100.64.0.0/10"), SIPBase: pfx("100.126.0.0/15")}); err == nil {
		t.Fatal("a /15 SIP base accepted")
	}
}

func TestFlatAddressNoAssumptions(t *testing.T) {
	// EIPs for different VMs in the same region are dense (aggregatable
	// by the provider) but the tenant-visible API never exposes structure:
	// two tenants' EIPs interleave in the same block.
	c, w, pa, _, _ := fig1Cloud(t)
	e1, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	e2, _ := c.Tenant("rival").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 2))
	e3, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az2", 1))
	if e2 != e1+1 || e3 != e2+1 {
		t.Fatalf("region block not dense: %s %s %s", e1, e2, e3)
	}
	block, _ := pa.RegionBlock(w.RegionsA[0])
	for _, e := range []EIP{e1, e2, e3} {
		if !block.Contains(e) {
			t.Fatalf("EIP %s outside region block", e)
		}
	}
	if got := pa.EndpointCount(); got != 3 {
		t.Fatalf("EndpointCount = %d", got)
	}
}

// TestReleaseEIPCostDoesNotGrowWithSIPs: release_eip finds what it drains
// through the declared state's by-address index, not by listing services
// or walking groups and names, so with a store attached a request_eip +
// release_eip pair beside 128 SIPs — bound to, grouped with and named
// beside the tenant's other address — allocates no more than beside 8.
func TestReleaseEIPCostDoesNotGrowWithSIPs(t *testing.T) {
	pair := func(sips int) float64 {
		c, w, pa, _, _ := fig1Cloud(t)
		l, err := intent.Open(t.TempDir(), intent.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		c.EnableIntent(l)
		acme := c.Tenant("acme")
		vm := topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)
		bound, err := acme.RequestEIP(vm)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sips; i++ {
			sip, err := acme.RequestSIP(pa.Name)
			if err != nil {
				t.Fatal(err)
			}
			if err := acme.Bind(bound, sip, 1); err != nil {
				t.Fatal(err)
			}
			if err := acme.Register(fmt.Sprintf("svc%d", i), sip); err != nil {
				t.Fatal(err)
			}
			if err := acme.CreateGroup(fmt.Sprintf("g%d", i), bound); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			eip, err := acme.RequestEIP(vm)
			if err != nil {
				t.Fatal(err)
			}
			if err := acme.ReleaseEIP(eip); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := pair(8), pair(128)
	t.Logf("request_eip + release_eip: %v allocations beside 8 SIPs, %v beside 128", few, many)
	if many > few {
		t.Errorf("the pair allocates %v times beside 128 SIPs and %v beside 8: release_eip's cost grows with the provider's SIP count", many, few)
	}
}
