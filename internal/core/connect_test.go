package core_test

// Connections over the simulated plane: admission, balancing, paths and
// egress enforcement end to end.

import (
	"math"
	"strings"
	"testing"
	"time"

	"declnet/internal/addr"
	. "declnet/internal/core"
	"declnet/internal/intent"
	"declnet/internal/permit"
	"declnet/internal/qos"
	"declnet/internal/simplane"
	"declnet/internal/topo"
)

func TestDefaultOffEndToEnd(t *testing.T) {
	c, w, _, _, _ := fig1Cloud(t)
	src, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	dst, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	// No permit list: connection refused.
	if _, err := simOf(c).Tenant("acme").Connect(src, dst, simplane.ConnectOpts{SizeBytes: 1000}); err == nil {
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
	conn, err := simOf(c).Tenant("acme").Connect(src, dst, simplane.ConnectOpts{
		SizeBytes: 1e6,
		OnDone:    func(d time.Duration) { fct = d },
	})
	if err != nil {
		t.Fatal(err)
	}
	simOf(c).Eng.Run()
	if fct == 0 {
		t.Fatal("flow never completed")
	}
	conn.Close()
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
		conn, err := simOf(c).Tenant("acme").Connect(client, sip, simplane.ConnectOpts{SizeBytes: -1})
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
		conn, err := simOf(c).Tenant("acme").Connect(client, sip, simplane.ConnectOpts{SizeBytes: -1})
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
		conn, err := simOf(c).Tenant("acme").Connect(client, sip, simplane.ConnectOpts{SizeBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		if conn.DstEIP != be2 {
			t.Fatal("unhealthy backend picked")
		}
		conn.Close()
	}
}

func TestPotatoProfilesAffectPath(t *testing.T) {
	c, w, pa, _, _ := fig1Cloud(t)
	src, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	dst, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	c.Tenant("acme").SetPermitList(dst, []permit.Entry{addr.NewPrefix(src, 32)})

	c.Tenant("acme").SetPotato(pa.Name, qos.HotPotato)
	hot, err := simOf(c).Tenant("acme").Connect(src, dst, simplane.ConnectOpts{SizeBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	c.Tenant("acme").SetPotato(pa.Name, qos.Dedicated)
	ded, err := simOf(c).Tenant("acme").Connect(src, dst, simplane.ConnectOpts{SizeBytes: -1})
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
	c1, err := simOf(c).Tenant("acme").Connect(src1, dst, simplane.ConnectOpts{SizeBytes: -1, Demand: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := simOf(c).Tenant("acme").Connect(src2, dst, simplane.ConnectOpts{SizeBytes: -1, Demand: 10e9})
	if err != nil {
		t.Fatal(err)
	}
	simOf(c).Eng.RunUntil(simOf(c).Eng.Now() + 500*time.Millisecond)
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
	if got, _, _, _ := simOf(c).Quota(pa.Name, "acme", reg); got != 100e6 || l.Seq() != seq {
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
	conn, err := simOf(c).Tenant("acme").Connect(src, dst, simplane.ConnectOpts{SizeBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := conn.Flow.Rate(); math.Abs(got-50e6) > 1e3 {
		t.Fatalf("VM egress cap: rate = %v, want 50Mbps", got)
	}
	conn.Close()
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
	conn, err := simOf(c).Tenant("acme").Connect(cloudVM, onprem, simplane.ConnectOpts{SizeBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(conn.Path) == 0 {
		t.Fatal("empty path to on-prem")
	}
	conn.Close()
}

func TestErrorsMentionDefaultOff(t *testing.T) {
	c, w, _, _, _ := fig1Cloud(t)
	src, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	dst, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	_, err := simOf(c).Tenant("acme").Connect(src, dst, simplane.ConnectOpts{SizeBytes: 1})
	if err == nil || !strings.Contains(err.Error(), "default-off") {
		t.Fatalf("err = %v, want default-off mention", err)
	}
}
