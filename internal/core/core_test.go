package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"declnet/internal/addr"
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
	pa, err := c.AddProvider(w.CloudA, Config{
		EIPBase: pfx("100.64.0.0/10"),
		SIPBase: pfx("100.127.0.0/16"),
	})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := c.AddProvider(w.CloudB, Config{
		EIPBase: pfx("104.0.0.0/8"),
		SIPBase: pfx("104.255.0.0/16"),
	})
	if err != nil {
		t.Fatal(err)
	}
	po, err := c.AddProvider("onprem", Config{
		EIPBase: pfx("108.0.0.0/8"),
		SIPBase: pfx("108.255.0.0/16"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, w, pa, pb, po
}

func TestRequestEIPValidation(t *testing.T) {
	c, w, pa, _, _ := fig1Cloud(t)
	_ = c
	vm := topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)
	eip, err := pa.RequestEIP("acme", vm)
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
	if _, err := pa.RequestEIP("acme", "no-such-vm"); err == nil {
		t.Fatal("unknown VM granted an EIP")
	}
	if _, err := pa.RequestEIP("acme", topo.RegionRouterID(w.CloudA, w.RegionsA[0])); err == nil {
		t.Fatal("non-host node granted an EIP")
	}
	// A VM of cloud B cannot get an EIP from provider A.
	if _, err := pa.RequestEIP("acme", topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1)); err == nil {
		t.Fatal("cross-provider EIP grant succeeded")
	}
}

func TestDefaultOffEndToEnd(t *testing.T) {
	c, w, pa, pb, _ := fig1Cloud(t)
	src, _ := pa.RequestEIP("acme", topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	dst, _ := pb.RequestEIP("acme", topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	// No permit list: connection refused.
	if _, err := c.Connect("acme", src, dst, ConnectOpts{SizeBytes: 1000}); err == nil {
		t.Fatal("default-off violated: connect without permit list succeeded")
	}
	if c.Admitted(src, dst) {
		t.Fatal("Admitted true without permit list")
	}
	// Permit the source; now it flows.
	if err := pb.SetPermitList("acme", dst, []permit.Entry{addr.NewPrefix(src, 32)}); err != nil {
		t.Fatal(err)
	}
	var fct time.Duration
	conn, err := c.Connect("acme", src, dst, ConnectOpts{
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
	c, w, pa, pb, _ := fig1Cloud(t)
	victim, _ := pb.RequestEIP("acme", topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	attacker, _ := pa.RequestEIP("evil", topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	friend, _ := pa.RequestEIP("acme", topo.HostID(w.CloudA, w.RegionsA[0], "az1", 2))
	pb.SetPermitList("acme", victim, []permit.Entry{addr.NewPrefix(friend, 32)})
	if c.Admitted(attacker, victim) {
		t.Fatal("unpermitted tenant admitted")
	}
	if !c.Admitted(friend, victim) {
		t.Fatal("permitted source rejected")
	}
	// evil cannot edit acme's permit list.
	if err := pb.SetPermitList("evil", victim, []permit.Entry{addr.NewPrefix(attacker, 32)}); err == nil {
		t.Fatal("cross-tenant permit-list mutation succeeded")
	}
}

func TestSIPLoadBalancing(t *testing.T) {
	c, w, pa, pb, _ := fig1Cloud(t)
	// Two backends in cloud B behind one SIP; client in cloud A.
	be1, _ := pb.RequestEIP("acme", topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	be2, _ := pb.RequestEIP("acme", topo.HostID(w.CloudB, w.RegionsB[0], "az2", 1))
	sip, err := pb.RequestSIP("acme")
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Bind("acme", be1, sip, 1); err != nil {
		t.Fatal(err)
	}
	if err := pb.Bind("acme", be2, sip, 1); err != nil {
		t.Fatal(err)
	}
	client, _ := pa.RequestEIP("acme", topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	pb.SetPermitList("acme", sip, []permit.Entry{addr.NewPrefix(client, 32)})
	hits := map[EIP]int{}
	for i := 0; i < 10; i++ {
		conn, err := c.Connect("acme", client, sip, ConnectOpts{SizeBytes: -1})
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
	be1, _ := pb.RequestEIP("acme", topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	be2, _ := pb.RequestEIP("acme", topo.HostID(w.CloudB, w.RegionsB[0], "az2", 1))
	sip, _ := pb.RequestSIP("acme")
	pb.Bind("acme", be1, sip, 3)
	pb.Bind("acme", be2, sip, 1)
	client, _ := pb.RequestEIP("acme", topo.HostID(w.CloudB, w.RegionsB[1], "az1", 1))
	pb.SetPermitList("acme", sip, []permit.Entry{addr.NewPrefix(client, 32)})
	hits := map[EIP]int{}
	for i := 0; i < 8; i++ {
		conn, err := c.Connect("acme", client, sip, ConnectOpts{SizeBytes: -1})
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
		conn, err := c.Connect("acme", client, sip, ConnectOpts{SizeBytes: -1})
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
	a, _ := pb.RequestEIP("acme", topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	bb, _ := pb.RequestEIP("acme", topo.HostID(w.CloudB, w.RegionsB[0], "az1", 2))
	dst, _ := pb.RequestEIP("acme", topo.HostID(w.CloudB, w.RegionsB[0], "az2", 1))
	if err := pb.CreateGroup("acme", "web", a, bb); err != nil {
		t.Fatal(err)
	}
	if err := pb.SetPermitList("acme", dst, nil, "web"); err != nil {
		t.Fatal(err)
	}
	if !c.Admitted(a, dst) || !c.Admitted(bb, dst) {
		t.Fatal("group members not admitted")
	}
	if err := pb.SetPermitList("acme", dst, nil, "missing-group"); err == nil {
		t.Fatal("unknown group accepted")
	}
	// Groups may only contain the tenant's own endpoints.
	other, _ := pb.RequestEIP("rival", topo.HostID(w.CloudB, w.RegionsB[1], "az1", 1))
	if err := pb.CreateGroup("acme", "bad", other); err == nil {
		t.Fatal("foreign EIP accepted into group")
	}
}

func TestPotatoProfilesAffectPath(t *testing.T) {
	c, w, pa, pb, _ := fig1Cloud(t)
	src, _ := pa.RequestEIP("acme", topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	dst, _ := pb.RequestEIP("acme", topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	pb.SetPermitList("acme", dst, []permit.Entry{addr.NewPrefix(src, 32)})

	pa.SetPotato("acme", qos.HotPotato)
	hot, err := c.Connect("acme", src, dst, ConnectOpts{SizeBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	pa.SetPotato("acme", qos.Dedicated)
	ded, err := c.Connect("acme", src, dst, ConnectOpts{SizeBytes: -1})
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
	c, w, pa, pb, _ := fig1Cloud(t)
	src1, _ := pa.RequestEIP("acme", topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	src2, _ := pa.RequestEIP("acme", topo.HostID(w.CloudA, w.RegionsA[0], "az2", 1))
	dst, _ := pb.RequestEIP("acme", topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	pb.SetPermitList("acme", dst, []permit.Entry{pfx("100.64.0.0/10")})
	// 100 Mbps regional egress quota.
	if err := pa.SetQoS("acme", w.RegionsA[0], 100e6); err != nil {
		t.Fatal(err)
	}
	c1, err := c.Connect("acme", src1, dst, ConnectOpts{SizeBytes: -1, Demand: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := c.Connect("acme", src2, dst, ConnectOpts{SizeBytes: -1, Demand: 10e9})
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
	if err := pa.SetQoS("acme", "mars", 1); err == nil {
		t.Fatal("unknown region accepted")
	}
}

func TestVMEgressCap(t *testing.T) {
	c, w, pa, pb, _ := fig1Cloud(t)
	src, _ := pa.RequestEIP("acme", topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	dst, _ := pb.RequestEIP("acme", topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	pb.SetPermitList("acme", dst, []permit.Entry{addr.NewPrefix(src, 32)})
	if err := pa.SetVMEgressCap("acme", src, 50e6); err != nil {
		t.Fatal(err)
	}
	conn, err := c.Connect("acme", src, dst, ConnectOpts{SizeBytes: -1})
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
	be, _ := pb.RequestEIP("acme", topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	sip, _ := pb.RequestSIP("acme")
	pb.Bind("acme", be, sip, 1)
	pb.SetPermitList("acme", be, []permit.Entry{pfx("0.0.0.0/0")})
	if err := pb.ReleaseEIP("acme", be); err != nil {
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
	be2, _ := pb.RequestEIP("acme", topo.HostID(w.CloudB, w.RegionsB[0], "az1", 2))
	if be2 != be {
		t.Fatalf("address not recycled: %s vs %s", be2, be)
	}
	if err := pb.ReleaseEIP("acme", be2); err != nil {
		t.Fatal(err)
	}
	if err := pb.ReleaseEIP("acme", be2); err == nil {
		t.Fatal("double release succeeded")
	}
}

func TestProbe(t *testing.T) {
	c, w, pa, pb, _ := fig1Cloud(t)
	src, _ := pa.RequestEIP("acme", topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	dst, _ := pb.RequestEIP("acme", topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	if _, _, err := c.Probe("acme", src, dst); err == nil {
		t.Fatal("probe admitted without permit list")
	}
	pb.SetPermitList("acme", dst, []permit.Entry{addr.NewPrefix(src, 32)})
	rtt, _, err := c.Probe("acme", src, dst)
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
	c, w, pa, _, po := fig1Cloud(t)
	opHost := topo.NodeID("onprem/hq/host1")
	onprem, err := po.RequestEIP("acme", opHost)
	if err != nil {
		t.Fatal(err)
	}
	cloudVM, _ := pa.RequestEIP("acme", topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	po.SetPermitList("acme", onprem, []permit.Entry{addr.NewPrefix(cloudVM, 32)})
	conn, err := c.Connect("acme", cloudVM, onprem, ConnectOpts{SizeBytes: -1})
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

func TestFlatAddressNoAssumptions(t *testing.T) {
	// EIPs for different VMs in the same region are dense (aggregatable
	// by the provider) but the tenant-visible API never exposes structure:
	// two tenants' EIPs interleave in the same block.
	_, w, pa, _, _ := fig1Cloud(t)
	e1, _ := pa.RequestEIP("acme", topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	e2, _ := pa.RequestEIP("rival", topo.HostID(w.CloudA, w.RegionsA[0], "az1", 2))
	e3, _ := pa.RequestEIP("acme", topo.HostID(w.CloudA, w.RegionsA[0], "az2", 1))
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
	c, w, pa, pb, _ := fig1Cloud(t)
	src, _ := pa.RequestEIP("acme", topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	dst, _ := pb.RequestEIP("acme", topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	_, err := c.Connect("acme", src, dst, ConnectOpts{SizeBytes: 1})
	if err == nil || !strings.Contains(err.Error(), "default-off") {
		t.Fatalf("err = %v, want default-off mention", err)
	}
}

// TestReleaseEIPCostDoesNotGrowWithSIPs pins that release_eip asks each
// of a provider's balancers one allocation-free question (Unbind, whose
// miss is the fixed lb.ErrNotBound) instead of copying and sorting its
// backends: a request_eip + release_eip pair on a provider holding 128
// SIPs allocates within 8 of the pair on one holding 8 — the growth steps
// of serviceSnapshot's one slice. Copying the backends cost at least one
// allocation more per SIP.
func TestReleaseEIPCostDoesNotGrowWithSIPs(t *testing.T) {
	pair := func(sips int) float64 {
		_, w, pa, _, _ := fig1Cloud(t)
		vm := topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)
		bound, err := pa.RequestEIP("acme", vm)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sips; i++ {
			sip, err := pa.RequestSIP("acme")
			if err != nil {
				t.Fatal(err)
			}
			if err := pa.Bind("acme", bound, sip, 1); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			eip, err := pa.RequestEIP("acme", vm)
			if err != nil {
				t.Fatal(err)
			}
			if err := pa.ReleaseEIP("acme", eip); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := pair(8), pair(128)
	t.Logf("request_eip + release_eip: %v allocations beside 8 SIPs, %v beside 128", few, many)
	if many > few+8 {
		t.Errorf("the pair allocates %v times beside 128 SIPs and %v beside 8: release_eip's cost grows with the provider's SIP count", many, few)
	}
}
