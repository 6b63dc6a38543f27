package core

import (
	"testing"
	"time"

	"declnet/internal/addr"
	"declnet/internal/permit"
	"declnet/internal/topo"
)

// failoverWorld grants a SIP with two backends in cloud B and a permitted
// client in cloud A, with faults enabled under the given policy.
func failoverWorld(t *testing.T, policy FaultPolicy) (c *Cloud, m *FaultMonitor, client EIP, sip SIP, be1, be2 EIP, n1, n2 topo.NodeID) {
	t.Helper()
	c, w, _, pb, _ := fig1Cloud(t)
	m = c.EnableFaults(policy)

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
	policy := FaultPolicy{HealthInterval: 100 * time.Millisecond}
	c, m, client, sip, be1, _, n1, _ := failoverWorld(t, policy)

	c.Eng.Schedule(time.Second, func() {
		if err := m.Inj.FailNode(n1); err != nil {
			t.Error(err)
		}
	})
	// After the detect delay every pick must land on the survivor —
	// with zero tenant API calls in between.
	c.Eng.Schedule(time.Second+(DownAfter+1)*policy.HealthInterval, func() {
		for i := 0; i < 10; i++ {
			cn, err := c.Tenant("acme").Connect(client, sip, ConnectOpts{SizeBytes: 1e3})
			if err != nil {
				t.Fatalf("connect during failure: %v", err)
			}
			if cn.DstEIP == be1 {
				t.Fatalf("pick %d served from down backend %s", i, be1)
			}
			cn.Close()
		}
	})
	c.Eng.RunUntil(5 * time.Second)
	if m.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", m.Failovers)
	}
	if !m.BackendDown("cloudB", sip, be1) {
		t.Fatal("monitor should hold be1 out of rotation")
	}
}

func TestRecoveredBackendRebindsAfterBackoff(t *testing.T) {
	c, m, _, sip, be1, _, n1, _ := failoverWorld(t, FaultPolicy{HealthInterval: 100 * time.Millisecond})

	c.Eng.Schedule(time.Second, func() { m.Inj.FailNode(n1) })
	c.Eng.Schedule(3*time.Second, func() { m.Inj.RestoreNode(n1) })
	// Just after recovery the backoff still holds the backend out.
	c.Eng.Schedule(3*time.Second+300*time.Millisecond, func() {
		if !m.BackendDown("cloudB", sip, be1) {
			t.Error("backend re-entered rotation before backoff elapsed")
		}
	})
	c.Eng.RunUntil(6 * time.Second)
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
	policy := FaultPolicy{HealthInterval: 100 * time.Millisecond}
	c, m, _, sip, be1, _, n1, _ := failoverWorld(t, policy)

	// Six fail/heal rounds: each re-bind waits double the last one's
	// backoff, capped from the fourth round on.
	want := []time.Duration{RebindBackoff, 2 * RebindBackoff, 4 * RebindBackoff,
		rebindBackoffMax, rebindBackoffMax, rebindBackoffMax}
	at := time.Second
	for i, backoff := range want {
		restore := at + time.Second
		c.Eng.Schedule(at, func() { m.Inj.FailNode(n1) })
		c.Eng.Schedule(restore, func() { m.Inj.RestoreNode(n1) })
		c.Eng.Schedule(restore+backoff-policy.HealthInterval, func() {
			if !m.BackendDown("cloudB", sip, be1) {
				t.Errorf("round %d: re-bound before its %v backoff", i, backoff)
			}
		})
		c.Eng.Schedule(restore+backoff+2*policy.HealthInterval, func() {
			if m.BackendDown("cloudB", sip, be1) || m.Rebinds != uint64(i+1) {
				t.Errorf("round %d: not re-bound %v after recovery (rebinds %d)", i, backoff, m.Rebinds)
			}
		})
		at = restore + backoff + time.Second
	}
	c.Eng.RunUntil(at)
	if m.Failovers != uint64(len(want)) || m.Rebinds != uint64(len(want)) {
		t.Fatalf("failovers=%d rebinds=%d, want %d/%d", m.Failovers, m.Rebinds, len(want), len(want))
	}
	if st := m.backends[backendKey{"cloudB", sip, be1}]; st.backoff != rebindBackoffMax {
		t.Fatalf("backoff = %v, want capped at %v", st.backoff, rebindBackoffMax)
	}
}

func TestPermitUpdateRetriesUntilNodeReturns(t *testing.T) {
	c, m, client, _, be1, _, n1, _ := failoverWorld(t, FaultPolicy{HealthInterval: 100 * time.Millisecond})
	pb, _ := c.Provider("cloudB")

	c.Eng.Schedule(time.Second, func() { m.Inj.FailNode(n1) })
	// While be1's host is down, a permit update for it defers.
	c.Eng.Schedule(2*time.Second, func() {
		if err := c.Tenant("acme").SetPermitList(be1, []permit.Entry{addr.NewPrefix(client, 32)}); err != nil {
			t.Error(err)
		}
		if pb.Permits.Check(client, be1) {
			t.Error("permit landed while enforcement point unreachable")
		}
	})
	c.Eng.Schedule(4*time.Second, func() { m.Inj.RestoreNode(n1) })
	c.Eng.RunUntil(8 * time.Second)
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
	c, m, client, _, be1, _, n1, _ := failoverWorld(t, FaultPolicy{HealthInterval: 100 * time.Millisecond})
	pb, _ := c.Provider("cloudB")

	c.Eng.Schedule(time.Second, func() { m.Inj.FailNode(n1) })
	c.Eng.Schedule(2*time.Second, func() {
		c.Tenant("acme").SetPermitList(be1, []permit.Entry{addr.NewPrefix(client, 32)})
	})
	// Node never heals within the timeout.
	c.Eng.RunUntil(2*time.Second + permitRetryTimeout + 2*permitRetryInterval)
	if m.PermitTimeouts != 1 {
		t.Fatalf("PermitTimeouts = %d, want 1", m.PermitTimeouts)
	}
	if pb.Permits.Check(client, be1) {
		t.Fatal("abandoned permit update must not land")
	}
}

func TestQuotaDegradesWhenRegionPartitions(t *testing.T) {
	c, w, pa, _, _ := fig1Cloud(t)
	m := c.EnableFaults(FaultPolicy{HealthInterval: 100 * time.Millisecond})

	// Two senders in different cloud-A regions, one receiver in cloud B,
	// a tenant-wide quota per region.
	src1, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	src2, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[1], "az1", 1))
	dst, _ := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	c.Tenant("acme").SetPermitList(dst, []permit.Entry{addr.NewPrefix(src1, 32), addr.NewPrefix(src2, 32)})
	c.Tenant("acme").SetQoS(pa.Name, w.RegionsA[0], 2e9)
	c.Tenant("acme").SetQoS(pa.Name, w.RegionsA[1], 2e9)

	cn1, err := c.Tenant("acme").Connect(src1, dst, ConnectOpts{SizeBytes: -1, Demand: 2e9})
	if err != nil {
		t.Fatal(err)
	}
	cn2, err := c.Tenant("acme").Connect(src2, dst, ConnectOpts{SizeBytes: -1, Demand: 2e9})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = cn1, cn2

	// Partition region a-east away: its enforcer must drop out of the
	// limiter's share so the tenant's guarantee survives on a-west.
	c.Eng.Schedule(time.Second, func() { m.Inj.FailRegion(w.CloudA, w.RegionsA[0]) })
	c.Eng.Schedule(2*time.Second, func() {
		tq := pa.quotas["acme"][w.RegionsA[0]]
		for _, enf := range tq.enforcer {
			if enf.Up() {
				t.Error("enforcer in partitioned region should be marked down")
			}
		}
		tq2 := pa.quotas["acme"][w.RegionsA[1]]
		for _, enf := range tq2.enforcer {
			if !enf.Up() {
				t.Error("enforcer in healthy region should stay up")
			}
		}
		if cn2.Flow.Rate() == 0 {
			t.Error("surviving region's flow should keep its rate")
		}
	})
	c.Eng.Schedule(3*time.Second, func() { m.Inj.RestoreRegion(w.CloudA, w.RegionsA[0]) })
	c.Eng.RunUntil(5 * time.Second)
	tq := pa.quotas["acme"][w.RegionsA[0]]
	for _, enf := range tq.enforcer {
		if !enf.Up() {
			t.Fatal("enforcer should recover with its region")
		}
	}
}
