package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/permit"
	"declnet/internal/qos"
	"declnet/internal/topo"
)

func pfx(s string) addr.Prefix { return addr.MustParsePrefix(s) }

// fig1Cloud builds the Fig-1 world with providers for both clouds and the
// on-prem site.
func fig1Cloud(t *testing.T) (*Cloud, *topo.Fig1World, *Provider, *Provider, *Provider) {
	t.Helper()
	w := topo.BuildFig1(2)
	c := NewCloud(1, w.Graph)
	pa, pb, po, err := AddFig1Providers(c, w)
	if err != nil {
		t.Fatal(err)
	}
	return c, w, pa, pb, po
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

func TestDefaultOffEndToEnd(t *testing.T) {
	c, w, _, _, _ := fig1Cloud(t)
	src, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	dst, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	// No permit list: connection refused.
	if _, err := c.Tenant("acme").Connect(src, dst, ConnectOpts{SizeBytes: 1000}); err == nil {
		t.Fatal("default-off violated: connect without permit list succeeded")
	}
	if c.Admitted(src, dst) {
		t.Fatal("Admitted true without permit list")
	}
	// Permit the source; now it flows.
	if err := c.Tenant("acme").SetPermitList(dst, []permit.Entry{addr.NewPrefix(src, 32)}); err != nil {
		t.Fatal(err)
	}
	var fct time.Duration
	conn, err := c.Tenant("acme").Connect(src, dst, ConnectOpts{
		SizeBytes: 1e6,
		OnDone:    func(d time.Duration) { fct = d },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if fct == 0 {
		t.Fatal("flow never completed")
	}
	conn.Close()
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

func TestSIPLoadBalancing(t *testing.T) {
	c, w, _, pb, _ := fig1Cloud(t)
	// Two backends in cloud B behind one SIP; client in cloud A.
	be1, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	be2, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az2", 1))
	sip, err := c.Tenant("acme").RequestSIP(pb.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").Bind(be1, sip, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").Bind(be2, sip, 1); err != nil {
		t.Fatal(err)
	}
	client, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	c.Tenant("acme").SetPermitList(sip, []permit.Entry{addr.NewPrefix(client, 32)})
	hits := map[EIP]int{}
	for i := 0; i < 10; i++ {
		conn, err := c.Tenant("acme").Connect(client, sip, ConnectOpts{SizeBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		hits[conn.DstEIP]++
		conn.Close()
	}
	if hits[be1] != 5 || hits[be2] != 5 {
		t.Fatalf("SIP balancing = %v, want 5/5", hits)
	}
}

func TestSIPWeightsAndHealth(t *testing.T) {
	c, w, _, pb, _ := fig1Cloud(t)
	be1, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	be2, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az2", 1))
	sip, _ := c.Tenant("acme").RequestSIP(pb.Name)
	c.Tenant("acme").Bind(be1, sip, 3)
	c.Tenant("acme").Bind(be2, sip, 1)
	client, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[1], "az1", 1))
	c.Tenant("acme").SetPermitList(sip, []permit.Entry{addr.NewPrefix(client, 32)})
	hits := map[EIP]int{}
	for i := 0; i < 8; i++ {
		conn, err := c.Tenant("acme").Connect(client, sip, ConnectOpts{SizeBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		hits[conn.DstEIP]++
		conn.Close()
	}
	if hits[be1] != 6 || hits[be2] != 2 {
		t.Fatalf("weighted balancing = %v, want 6/2", hits)
	}
	// Health failure removes be1 from rotation.
	pb.MarkHealth(be1, false)
	for i := 0; i < 4; i++ {
		conn, err := c.Tenant("acme").Connect(client, sip, ConnectOpts{SizeBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		if conn.DstEIP != be2 {
			t.Fatal("unhealthy backend picked")
		}
		conn.Close()
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

func TestPotatoProfilesAffectPath(t *testing.T) {
	c, w, pa, _, _ := fig1Cloud(t)
	src, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	dst, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	c.Tenant("acme").SetPermitList(dst, []permit.Entry{addr.NewPrefix(src, 32)})

	c.Tenant("acme").SetPotato(pa.Name, qos.HotPotato)
	hot, err := c.Tenant("acme").Connect(src, dst, ConnectOpts{SizeBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	c.Tenant("acme").SetPotato(pa.Name, qos.Dedicated)
	ded, err := c.Tenant("acme").Connect(src, dst, ConnectOpts{SizeBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	countKind := func(p topo.Path, k topo.LinkKind) int {
		n := 0
		for _, l := range p {
			if l.Kind == k {
				n++
			}
		}
		return n
	}
	if countKind(hot.Path, topo.Transit) == 0 {
		t.Fatal("hot-potato path avoided transit entirely")
	}
	if countKind(ded.Path, topo.Transit) != 0 {
		t.Fatal("dedicated path crossed transit")
	}
	hot.Close()
	ded.Close()
}

func TestRegionalQuotaEnforced(t *testing.T) {
	c, w, pa, _, _ := fig1Cloud(t)
	src1, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	src2, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az2", 1))
	dst, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	c.Tenant("acme").SetPermitList(dst, []permit.Entry{pfx("100.64.0.0/10")})
	// 100 Mbps regional egress quota.
	if err := c.Tenant("acme").SetQoS(pa.Name, w.RegionsA[0], 100e6); err != nil {
		t.Fatal(err)
	}
	c1, err := c.Tenant("acme").Connect(src1, dst, ConnectOpts{SizeBytes: -1, Demand: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := c.Tenant("acme").Connect(src2, dst, ConnectOpts{SizeBytes: -1, Demand: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	c.Eng.RunUntil(c.Eng.Now() + 500*time.Millisecond)
	total := c1.Flow.Rate() + c2.Flow.Rate()
	if total > 100e6*1.02 {
		t.Fatalf("regional quota exceeded: %v bps", total)
	}
	if total < 100e6*0.9 {
		t.Fatalf("quota badly underutilized: %v bps", total)
	}
	c1.Close()
	c2.Close()
	if err := c.Tenant("acme").SetQoS(pa.Name, "mars", 1); err == nil {
		t.Fatal("unknown region accepted")
	}
}

// TestSetQoSRefusesBadBandwidth: a negative or non-finite quota is an
// error that leaves the limiter and the journal as they were; zero, which
// clears the reservation, is a quota.
func TestSetQoSRefusesBadBandwidth(t *testing.T) {
	c, w, pa, _, _ := fig1Cloud(t)
	l, err := intent.Open(t.TempDir(), intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c.EnableIntent(l)
	acme, reg := c.Tenant("acme"), w.RegionsA[0]
	if err := acme.SetQoS(pa.Name, reg, 100e6); err != nil {
		t.Fatal(err)
	}
	seq := l.Seq()
	for _, bps := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := acme.SetQoS(pa.Name, reg, bps); err == nil {
			t.Errorf("SetQoS(%g) accepted", bps)
		}
	}
	if got := pa.quotaBps("acme", reg); got != 100e6 || l.Seq() != seq {
		t.Errorf("after refused quotas: limiter %g bit/s, journal seq %d; want 1e+08 and %d", got, l.Seq(), seq)
	}
	if err := acme.SetQoS(pa.Name, reg, 0); err != nil {
		t.Errorf("SetQoS(0): %v", err)
	}
}

func TestVMEgressCap(t *testing.T) {
	c, w, _, _, _ := fig1Cloud(t)
	src, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	dst, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	c.Tenant("acme").SetPermitList(dst, []permit.Entry{addr.NewPrefix(src, 32)})
	if err := c.Tenant("acme").SetVMEgressCap(src, 50e6); err != nil {
		t.Fatal(err)
	}
	conn, err := c.Tenant("acme").Connect(src, dst, ConnectOpts{SizeBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := conn.Flow.Rate(); math.Abs(got-50e6) > 1e3 {
		t.Fatalf("VM egress cap: rate = %v, want 50Mbps", got)
	}
	conn.Close()
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

func TestOnPremUniformAPI(t *testing.T) {
	// The same verbs work for on-prem endpoints — the multi-domain
	// uniformity claim of §5.
	c, w, _, _, _ := fig1Cloud(t)
	opHost := topo.NodeID("onprem/hq/host1")
	onprem, err := c.Tenant("acme").RequestEIP(opHost)
	if err != nil {
		t.Fatal(err)
	}
	cloudVM, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	c.Tenant("acme").SetPermitList(onprem, []permit.Entry{addr.NewPrefix(cloudVM, 32)})
	conn, err := c.Tenant("acme").Connect(cloudVM, onprem, ConnectOpts{SizeBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(conn.Path) == 0 {
		t.Fatal("empty path to on-prem")
	}
	conn.Close()
}

func TestDuplicateProvider(t *testing.T) {
	w := topo.BuildFig1(1)
	c := NewCloud(1, w.Graph)
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
	c := NewCloud(1, w.Graph)
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

func TestErrorsMentionDefaultOff(t *testing.T) {
	c, w, _, _, _ := fig1Cloud(t)
	src, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	dst, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	_, err := c.Tenant("acme").Connect(src, dst, ConnectOpts{SizeBytes: 1})
	if err == nil || !strings.Contains(err.Error(), "default-off") {
		t.Fatalf("err = %v, want default-off mention", err)
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
