package core_test

import (
	"slices"
	"testing"
	"time"

	"declnet/internal/addr"
	. "declnet/internal/core"
	"declnet/internal/permit"
	"declnet/internal/simplane"
	"declnet/internal/topo"
)

// failoverWorld grants a SIP with two backends in cloud B and a permitted
// client in cloud A, with faults enabled under the given policy.
func failoverWorld(t *testing.T, policy simplane.FaultPolicy) (c *Cloud, m *simplane.FaultMonitor, client EIP, sip SIP, be1, be2 EIP, n1, n2 topo.NodeID) {
	t.Helper()
	c, w, _, pb, _ := fig1Cloud(t)
	m = simOf(c).EnableFaults(policy)

	var err error
	client, err = c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	if err != nil {
		t.Fatal(err)
	}
	n1 = topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1)
	n2 = topo.HostID(w.CloudB, w.RegionsB[0], "az2", 1)
	be1, err = c.Tenant("acme").RequestEIP(n1)
	if err != nil {
		t.Fatal(err)
	}
	be2, err = c.Tenant("acme").RequestEIP(n2)
	if err != nil {
		t.Fatal(err)
	}
	sip, err = c.Tenant("acme").RequestSIP(pb.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").Bind(be1, sip, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").Bind(be2, sip, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").SetPermitList(sip, []permit.Entry{addr.NewPrefix(client, 32)}); err != nil {
		t.Fatal(err)
	}
	return c, m, client, sip, be1, be2, n1, n2
}

func TestSIPFailsOverToSurvivingBackend(t *testing.T) {
	policy := simplane.FaultPolicy{HealthInterval: 100 * time.Millisecond}
	c, m, client, sip, be1, _, n1, _ := failoverWorld(t, policy)

	simOf(c).Eng.Schedule(time.Second, func() {
		if err := simOf(c).Inj.FailNode(n1); err != nil {
			t.Error(err)
		}
	})
	// After the detect delay every pick must land on the survivor —
	// with zero tenant API calls in between.
	simOf(c).Eng.Schedule(time.Second+(simplane.DownAfter+1)*policy.HealthInterval, func() {
		for i := 0; i < 10; i++ {
			cn, err := simOf(c).Tenant("acme").Connect(client, sip, simplane.ConnectOpts{SizeBytes: 1e3})
			if err != nil {
				t.Fatalf("connect during failure: %v", err)
			}
			if cn.DstEIP == be1 {
				t.Fatalf("pick %d served from down backend %s", i, be1)
			}
			cn.Close()
		}
	})
	simOf(c).Eng.RunUntil(5 * time.Second)
	if m.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", m.Failovers)
	}
	if !m.BackendDown("cloudB", sip, be1) {
		t.Fatal("monitor should hold be1 out of rotation")
	}
}

func TestRecoveredBackendRebindsAfterBackoff(t *testing.T) {
	c, m, _, sip, be1, _, n1, _ := failoverWorld(t, simplane.FaultPolicy{HealthInterval: 100 * time.Millisecond})

	simOf(c).Eng.Schedule(time.Second, func() { simOf(c).Inj.FailNode(n1) })
	simOf(c).Eng.Schedule(3*time.Second, func() { simOf(c).Inj.RestoreNode(n1) })
	// Just after recovery the backoff still holds the backend out.
	simOf(c).Eng.Schedule(3*time.Second+300*time.Millisecond, func() {
		if !m.BackendDown("cloudB", sip, be1) {
			t.Error("backend re-entered rotation before backoff elapsed")
		}
	})
	simOf(c).Eng.RunUntil(6 * time.Second)
	if m.Rebinds != 1 {
		t.Fatalf("Rebinds = %d, want 1", m.Rebinds)
	}
	if m.BackendDown("cloudB", sip, be1) {
		t.Fatal("backend should be back in rotation after backoff")
	}
	if m.LastRebindAt < 4*time.Second {
		t.Fatalf("rebind at %v, want ≥ recovery+backoff (4s)", m.LastRebindAt)
	}
}

func TestRebindBackoffDoublesPerFlap(t *testing.T) {
	policy := simplane.FaultPolicy{HealthInterval: 100 * time.Millisecond}
	c, m, _, sip, be1, _, n1, _ := failoverWorld(t, policy)

	// Six fail/heal rounds: each re-bind waits double the last one's
	// backoff, capped from the fourth round on.
	want := []time.Duration{simplane.RebindBackoff, 2 * simplane.RebindBackoff, 4 * simplane.RebindBackoff,
		simplane.RebindBackoffMax, simplane.RebindBackoffMax, simplane.RebindBackoffMax}
	at := time.Second
	for i, backoff := range want {
		restore := at + time.Second
		simOf(c).Eng.Schedule(at, func() { simOf(c).Inj.FailNode(n1) })
		simOf(c).Eng.Schedule(restore, func() { simOf(c).Inj.RestoreNode(n1) })
		simOf(c).Eng.Schedule(restore+backoff-policy.HealthInterval, func() {
			if !m.BackendDown("cloudB", sip, be1) {
				t.Errorf("round %d: re-bound before its %v backoff", i, backoff)
			}
		})
		simOf(c).Eng.Schedule(restore+backoff+2*policy.HealthInterval, func() {
			if m.BackendDown("cloudB", sip, be1) || m.Rebinds != uint64(i+1) {
				t.Errorf("round %d: not re-bound %v after recovery (rebinds %d)", i, backoff, m.Rebinds)
			}
		})
		at = restore + backoff + time.Second
	}
	simOf(c).Eng.RunUntil(at)
	if m.Failovers != uint64(len(want)) || m.Rebinds != uint64(len(want)) {
		t.Fatalf("failovers=%d rebinds=%d, want %d/%d", m.Failovers, m.Rebinds, len(want), len(want))
	}
	if backoff := m.Backoff("cloudB", sip, be1); backoff != simplane.RebindBackoffMax {
		t.Fatalf("backoff = %v, want capped at %v", backoff, simplane.RebindBackoffMax)
	}
}

func TestPermitUpdateRetriesUntilNodeReturns(t *testing.T) {
	c, m, client, _, be1, _, n1, _ := failoverWorld(t, simplane.FaultPolicy{HealthInterval: 100 * time.Millisecond})
	pb, _ := c.Provider("cloudB")

	simOf(c).Eng.Schedule(time.Second, func() { simOf(c).Inj.FailNode(n1) })
	// While be1's host is down, a permit update for it defers.
	simOf(c).Eng.Schedule(2*time.Second, func() {
		if err := c.Tenant("acme").SetPermitList(be1, []permit.Entry{addr.NewPrefix(client, 32)}); err != nil {
			t.Error(err)
		}
		if pb.Permits.Check(client, be1) {
			t.Error("permit landed while enforcement point unreachable")
		}
	})
	simOf(c).Eng.Schedule(4*time.Second, func() { simOf(c).Inj.RestoreNode(n1) })
	simOf(c).Eng.RunUntil(8 * time.Second)
	if !pb.Permits.Check(client, be1) {
		t.Fatal("permit update never landed after the node returned")
	}
	if m.PermitRetries == 0 {
		t.Fatal("expected at least one deferred attempt")
	}
	if m.PermitTimeouts != 0 {
		t.Fatalf("PermitTimeouts = %d, want 0", m.PermitTimeouts)
	}
}

func TestPermitUpdateTimesOut(t *testing.T) {
	c, m, client, _, be1, _, n1, _ := failoverWorld(t, simplane.FaultPolicy{HealthInterval: 100 * time.Millisecond})
	pb, _ := c.Provider("cloudB")

	simOf(c).Eng.Schedule(time.Second, func() { simOf(c).Inj.FailNode(n1) })
	simOf(c).Eng.Schedule(2*time.Second, func() {
		c.Tenant("acme").SetPermitList(be1, []permit.Entry{addr.NewPrefix(client, 32)})
	})
	// Node never heals within the timeout.
	simOf(c).Eng.RunUntil(2*time.Second + simplane.PermitRetryTimeout + 2*simplane.PermitRetryInterval)
	if m.PermitTimeouts != 1 {
		t.Fatalf("PermitTimeouts = %d, want 1", m.PermitTimeouts)
	}
	if pb.Permits.Check(client, be1) {
		t.Fatal("abandoned permit update must not land")
	}
}

// TestDeferredSetPermitsInstallTheLastDeclared: two set_permits 300ms
// apart defer behind one failed node, and the node heals between the
// first update's retry and the second's. The list that lands is the one
// declared last, with no store attached to repair it afterwards.
func TestDeferredSetPermitsInstallTheLastDeclared(t *testing.T) {
	c, _, _, _, be1, _, n1, _ := failoverWorld(t, simplane.FaultPolicy{HealthInterval: 100 * time.Millisecond})
	pb, _ := c.Provider("cloudB")
	run := func(d time.Duration) { simOf(c).Eng.RunUntil(simOf(c).Eng.Now() + d) }
	set := func(e addr.Prefix) {
		t.Helper()
		if err := c.Tenant("acme").SetPermitList(be1, []permit.Entry{e}); err != nil {
			t.Fatal(err)
		}
	}
	if err := simOf(c).Inj.FailNode(n1); err != nil {
		t.Fatal(err)
	}
	a, b := pfx("10.0.0.1/32"), pfx("10.0.0.2/32")
	set(a)
	run(300 * time.Millisecond)
	set(b)
	run(simplane.PermitRetryInterval - 200*time.Millisecond)
	if err := simOf(c).Inj.RestoreNode(n1); err != nil {
		t.Fatal(err)
	}
	run(3 * simplane.PermitRetryInterval)
	if got, want := pb.Permits.EntriesOf(be1), []addr.Prefix{b}; !slices.Equal(got, want) {
		t.Fatalf("installed %v after the heal, want the last declared %v", got, want)
	}
	if _, pending := simOf(c).PendingPermit(be1); pending {
		t.Fatal("update still pending after it landed")
	}
}

// TestPermitBehindADeferredSetPermitDefers: a permit to an endpoint whose
// node is down is declared at once and deferred, as the set_permit ahead
// of it was. Nothing lands on the unreachable node, and after the heal
// the node holds the list declared last.
func TestPermitBehindADeferredSetPermitDefers(t *testing.T) {
	c, _, _, _, be1, _, n1, _ := failoverWorld(t, simplane.FaultPolicy{HealthInterval: 100 * time.Millisecond})
	pb, _ := c.Provider("cloudB")
	if err := simOf(c).Inj.FailNode(n1); err != nil {
		t.Fatal(err)
	}
	a, b := pfx("10.0.0.1/32"), pfx("10.0.0.2/32")
	if err := c.Tenant("acme").SetPermitList(be1, []permit.Entry{a}); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").Permit(be1, b); err != nil {
		t.Fatal(err)
	}
	if got := pb.Permits.EntriesOf(be1); got != nil {
		t.Errorf("installed %v on an unreachable node", got)
	}
	if err := simOf(c).Inj.RestoreNode(n1); err != nil {
		t.Fatal(err)
	}
	simOf(c).Eng.RunUntil(simOf(c).Eng.Now() + 2*simplane.PermitRetryInterval)
	want := []addr.Prefix{a, b}
	if ep, _ := c.Declared().Endpoint(be1); !slices.Equal(ep.Permits.Entries(), want) {
		t.Fatalf("declared %v, want %v", ep.Permits.Entries(), want)
	}
	if got := pb.Permits.EntriesOf(be1); !slices.Equal(got, want) {
		t.Fatalf("installed %v after the heal, want the declared %v", got, want)
	}
}

func TestQuotaDegradesWhenRegionPartitions(t *testing.T) {
	c, w, pa, _, _ := fig1Cloud(t)
	simOf(c).EnableFaults(simplane.FaultPolicy{HealthInterval: 100 * time.Millisecond})

	// Two senders in different cloud-A regions, one receiver in cloud B,
	// a tenant-wide quota per region.
	src1, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	src2, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[1], "az1", 1))
	dst, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	c.Tenant("acme").SetPermitList(dst, []permit.Entry{addr.NewPrefix(src1, 32), addr.NewPrefix(src2, 32)})
	c.Tenant("acme").SetQoS(pa.Name, w.RegionsA[0], 2e9)
	c.Tenant("acme").SetQoS(pa.Name, w.RegionsA[1], 2e9)

	cn1, err := simOf(c).Tenant("acme").Connect(src1, dst, simplane.ConnectOpts{SizeBytes: -1, Demand: 2e9})
	if err != nil {
		t.Fatal(err)
	}
	cn2, err := simOf(c).Tenant("acme").Connect(src2, dst, simplane.ConnectOpts{SizeBytes: -1, Demand: 2e9})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = cn1, cn2

	// Partition region a-east away: its enforcer must drop out of the
	// limiter's share so the tenant's guarantee survives on a-west.
	simOf(c).Eng.Schedule(time.Second, func() { simOf(c).Inj.FailRegion(w.CloudA, w.RegionsA[0]) })
	simOf(c).Eng.Schedule(2*time.Second, func() {
		if _, up, _, _ := simOf(c).Quota(pa.Name, "acme", w.RegionsA[0]); up != 0 {
			t.Error("enforcer in partitioned region should be marked down")
		}
		if _, up, total, _ := simOf(c).Quota(pa.Name, "acme", w.RegionsA[1]); up != total {
			t.Error("enforcer in healthy region should stay up")
		}
		if cn2.Flow.Rate() == 0 {
			t.Error("surviving region's flow should keep its rate")
		}
	})
	simOf(c).Eng.Schedule(3*time.Second, func() { simOf(c).Inj.RestoreRegion(w.CloudA, w.RegionsA[0]) })
	simOf(c).Eng.RunUntil(5 * time.Second)
	if _, up, total, _ := simOf(c).Quota(pa.Name, "acme", w.RegionsA[0]); up != total {
		t.Fatal("enforcer should recover with its region")
	}
}
