package core_test

import (
	"math"
	"testing"
	"time"

	"declnet/internal/addr"
	"declnet/internal/permit"
	"declnet/internal/simplane"
	"declnet/internal/topo"
)

// TestBestEffortBypassesQuota covers the §4-footnote traffic-class
// extension: best-effort flows must not consume the regional reservation.
func TestBestEffortBypassesQuota(t *testing.T) {
	c, w, pa, _, _ := fig1Cloud(t)
	src1, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	src2, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az2", 1))
	dst, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	c.Tenant("acme").SetPermitList(dst, []permit.Entry{pfx("100.64.0.0/10")})
	if err := c.Tenant("acme").SetQoS(pa.Name, w.RegionsA[0], 100e6); err != nil {
		t.Fatal(err)
	}
	// simplane.Reserved flow is shaped to the quota; best-effort is not.
	res, err := simOf(c).Tenant("acme").Connect(src1, dst, simplane.ConnectOpts{SizeBytes: -1, Demand: 10e9, Class: simplane.Reserved})
	if err != nil {
		t.Fatal(err)
	}
	be, err := simOf(c).Tenant("acme").Connect(src2, dst, simplane.ConnectOpts{SizeBytes: -1, Demand: 10e9, Class: simplane.BestEffort})
	if err != nil {
		t.Fatal(err)
	}
	simOf(c).Eng.RunUntil(simOf(c).Eng.Now() + 500*time.Millisecond)
	if got := res.Flow.Rate(); math.Abs(got-100e6) > 2e6 {
		t.Fatalf("reserved flow rate = %v, want ~100Mbps (the whole quota)", got)
	}
	// Best-effort gets the fair share of the path under the per-VM cap,
	// far above the quota it never touched.
	if got := be.Flow.Rate(); got < 1e9 {
		t.Fatalf("best-effort flow rate = %v, want >1Gbps (unreserved)", got)
	}
	res.Close()
	be.Close()
}

func TestQoSClassString(t *testing.T) {
	if simplane.Reserved.String() != "reserved" || simplane.BestEffort.String() != "best-effort" {
		t.Fatal("class names wrong")
	}
}

// TestNamingExtension covers the §6 "abstract above addresses" extension.
func TestNamingExtension(t *testing.T) {
	c, w, _, pb, _ := fig1Cloud(t)
	client, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	be1, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	be2, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[1], "az1", 1))
	sip, _ := c.Tenant("acme").RequestSIP(pb.Name)
	c.Tenant("acme").Bind(be1, sip, 1)
	c.Tenant("acme").SetPermitList(sip, []permit.Entry{addr.NewPrefix(client, 32)})
	c.Tenant("acme").SetPermitList(be2, []permit.Entry{addr.NewPrefix(client, 32)})

	if err := c.Tenant("acme").Register("db", sip); err != nil {
		t.Fatal(err)
	}
	conn, err := simOf(c).Tenant("acme").ConnectName(client, "db", simplane.ConnectOpts{SizeBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if conn.DstEIP != be1 {
		t.Fatalf("name resolved to %s, want backend %s", conn.DstEIP, be1)
	}
	conn.Close()

	// Cutover: repoint the name at a plain EIP; clients keep working.
	if err := c.Tenant("acme").Register("db", be2); err != nil {
		t.Fatal(err)
	}
	conn, err = simOf(c).Tenant("acme").ConnectName(client, "db", simplane.ConnectOpts{SizeBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if conn.DstEIP != be2 {
		t.Fatalf("cutover resolved to %s, want %s", conn.DstEIP, be2)
	}
	conn.Close()

	// Tenancy: another tenant's names are separate; foreign addresses
	// are rejected.
	if err := c.Tenant("rival").Register("db", sip); err == nil {
		t.Fatal("rival registered a name over acme's SIP")
	}
	if _, ok := c.Tenant("rival").Resolve("db"); ok {
		t.Fatal("rival resolved acme's name")
	}
	if _, err := simOf(c).Tenant("acme").ConnectName(client, "ghost", simplane.ConnectOpts{}); err == nil {
		t.Fatal("unknown name connected")
	}
	if !c.Tenant("acme").Unregister("db") {
		t.Fatal("unregister failed")
	}
	if c.Tenant("acme").Unregister("db") {
		t.Fatal("double unregister succeeded")
	}
}
