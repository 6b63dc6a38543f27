package core

import (
	"math"
	"testing"
	"time"

	"declnet/internal/addr"
	"declnet/internal/meter"
	"declnet/internal/permit"
	"declnet/internal/topo"
)

func TestMeteringEndToEnd(t *testing.T) {
	c, w, pa, pb, _ := fig1Cloud(t)
	m := meter.New()
	c.SetBiller(m)

	src, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	dst, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	sip, _ := c.Tenant("acme").RequestSIP(pb.Name)
	c.Tenant("acme").Bind(dst, sip, 1)
	c.Tenant("acme").SetPermitList(sip, []permit.Entry{addr.NewPrefix(src, 32)})
	c.Tenant("acme").SetQoS(pa.Name, w.RegionsA[0], 2e9)

	// Transfer 10 MB reserved, then 5 MB best-effort.
	done := 0
	if _, err := c.Tenant("acme").Connect(src, sip, ConnectOpts{SizeBytes: 10e6,
		OnDone: func(time.Duration) { done++ }}); err != nil {
		t.Fatal(err)
	}
	simOf(c).Eng.Run()
	if _, err := c.Tenant("acme").Connect(src, sip, ConnectOpts{SizeBytes: 5e6, Class: BestEffort,
		OnDone: func(time.Duration) { done++ }}); err != nil {
		t.Fatal(err)
	}
	simOf(c).Eng.Run()
	if done != 2 {
		t.Fatalf("transfers completed = %d", done)
	}

	u := m.Snapshot("acme", simOf(c).Eng.Now())
	if math.Abs(u.ReservedBytes-10e6) > 1e3 {
		t.Fatalf("ReservedBytes = %v, want 10e6", u.ReservedBytes)
	}
	if math.Abs(u.BestEffortBytes-5e6) > 1e3 {
		t.Fatalf("BestEffortBytes = %v, want 5e6", u.BestEffortBytes)
	}
	if u.EIPSeconds <= 0 || u.SIPSeconds <= 0 {
		t.Fatalf("address-hours not integrated: %v/%v", u.EIPSeconds, u.SIPSeconds)
	}
	if u.PermitUpdates != 1 {
		t.Fatalf("PermitUpdates = %d, want 1", u.PermitUpdates)
	}
	if u.QuotaGbpsSeconds <= 0 {
		t.Fatalf("QuotaGbpsSeconds = %v", u.QuotaGbpsSeconds)
	}
	// Invoices price it without error and premium beats standard on
	// reserved-heavy usage at these volumes? (Not asserted directionally
	// — just that pricing is finite and positive.)
	inv := meter.Price("acme", u, meter.StandardTier())
	if inv.Total <= 0 {
		t.Fatalf("invoice total = %v", inv.Total)
	}
}

func TestMeteringCloseBillsOnce(t *testing.T) {
	c, w, _, _, _ := fig1Cloud(t)
	m := meter.New()
	c.SetBiller(m)
	src, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	dst, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	c.Tenant("acme").SetPermitList(dst, []permit.Entry{addr.NewPrefix(src, 32)})
	conn, err := c.Tenant("acme").Connect(src, dst, ConnectOpts{SizeBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	simOf(c).Eng.RunUntil(simOf(c).Eng.Now() + time.Second)
	conn.Close()
	first := m.Snapshot("acme", simOf(c).Eng.Now()).ReservedBytes
	if first <= 0 {
		t.Fatal("persistent flow bytes not billed at close")
	}
	conn.Close() // double close must not double-bill
	if again := m.Snapshot("acme", simOf(c).Eng.Now()).ReservedBytes; again != first {
		t.Fatalf("double close double-billed: %v -> %v", first, again)
	}
}
