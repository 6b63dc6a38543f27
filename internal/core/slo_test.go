package core

import (
	"strings"
	"testing"
	"time"

	"declnet/internal/addr"
	"declnet/internal/obs"
	"declnet/internal/permit"
	"declnet/internal/slo"
	"declnet/internal/topo"
)

// shardCountFor counts the plane's shards belonging to one tenant.
func shardCountFor(p *slo.Plane, tenant string) int {
	n := 0
	for _, s := range p.Snapshot() {
		if s.Key.Tenant == tenant {
			n++
		}
	}
	return n
}

// TestTenantEvictionOnFullRelease is the observability-lifetime
// regression: a tenant that releases its last address must take its
// decision-trace ring and SLO shard histograms with it — including the
// shard the release verb's own End would respawn after eviction.
func TestTenantEvictionOnFullRelease(t *testing.T) {
	c, w, pa, _, _ := fig1Cloud(t)
	tr := obs.NewTracer(64)
	c.EnableObservability(tr, nil)
	plane := slo.NewPlane(slo.Config{Window: time.Hour, SampleEvery: 1})
	c.EnableSLO(plane)
	if c.SLO() != plane {
		t.Fatal("SLO() did not return the attached plane")
	}

	eipA, err := c.Tenant("churn").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	if err != nil {
		t.Fatal(err)
	}
	eipB, err := c.Tenant("churn").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	if err != nil {
		t.Fatal(err)
	}
	sip, err := c.Tenant("churn").RequestSIP(pa.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TenantRefs("churn"); got != 3 {
		t.Fatalf("TenantRefs = %d, want 3", got)
	}
	tr.Record("churn", obs.Decision{Kind: obs.PermitAllow, Detail: "live"})
	if shardCountFor(plane, "churn") == 0 {
		t.Fatal("grants recorded no SLO shards")
	}

	// Partial release keeps everything.
	if err := c.Tenant("churn").ReleaseEIP(eipA); err != nil {
		t.Fatal(err)
	}
	if got := c.TenantRefs("churn"); got != 2 {
		t.Fatalf("TenantRefs after partial release = %d, want 2", got)
	}
	if tr.Len("churn") == 0 || shardCountFor(plane, "churn") == 0 {
		t.Fatal("partial release evicted live tenant state")
	}

	// Full release evicts ring and shards, with nothing respawned by the
	// final release's own latency recording.
	if err := c.Tenant("churn").ReleaseEIP(eipB); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("churn").ReleaseSIP(sip); err != nil {
		t.Fatal(err)
	}
	if got := c.TenantRefs("churn"); got != 0 {
		t.Fatalf("TenantRefs after full release = %d, want 0", got)
	}
	if got := tr.Len("churn"); got != 0 {
		t.Fatalf("trace ring survived eviction with %d events", got)
	}
	if got := shardCountFor(plane, "churn"); got != 0 {
		t.Fatalf("%d SLO shards survived eviction", got)
	}

	// Re-onboarding starts fresh.
	if _, err := c.Tenant("churn").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)); err != nil {
		t.Fatal(err)
	}
	if got := c.TenantRefs("churn"); got != 1 {
		t.Fatalf("TenantRefs after re-grant = %d, want 1", got)
	}
	if shardCountFor(plane, "churn") == 0 {
		t.Fatal("re-onboarded tenant recorded no shards")
	}
}

// TestTenantEvictionViaBatch covers the batch path: a batch whose ops
// release the tenant's last address must sweep the shard the batch op's
// own End records into.
func TestTenantEvictionViaBatch(t *testing.T) {
	c, w, _, _, _ := fig1Cloud(t)
	plane := slo.NewPlane(slo.Config{Window: time.Hour})
	c.EnableSLO(plane)

	eip, err := c.Tenant("churn").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyBatch("churn", []BatchOp{
		{Op: "release_eip", EIP: eip.String()},
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.TenantRefs("churn"); got != 0 {
		t.Fatalf("TenantRefs after batch release = %d, want 0", got)
	}
	if got := shardCountFor(plane, "churn"); got != 0 {
		t.Fatalf("%d SLO shards survived batch eviction", got)
	}
}

// TestBreachLandsInDecisionTrace checks the EnableSLO bridge: a detector
// breach fires the OnBreach callback into the victim tenant's trace ring
// as an slo-breach event carrying the cause chain.
func TestBreachLandsInDecisionTrace(t *testing.T) {
	c, _, _, _, _ := fig1Cloud(t)
	tr := obs.NewTracer(64)
	c.EnableObservability(tr, nil)
	plane := slo.NewPlane(slo.Config{Window: time.Hour})
	c.EnableSLO(plane)

	// 32 connects a window: the detector's floor.
	for i := 0; i < 32; i++ {
		plane.Observe(slo.VerbConnect, "victim", "cloudA/a-east", time.Microsecond)
	}
	plane.AdvanceWindow()
	for i := 0; i < 32; i++ {
		plane.Observe(slo.VerbConnect, "victim", "cloudA/a-east", 100*time.Microsecond)
	}
	for i := 0; i < 100; i++ {
		plane.Observe(slo.VerbPermit, "noisy", "cloudB/b-east", time.Microsecond)
	}
	if rep := plane.Health(); rep.Status != "degraded" {
		t.Fatalf("expected breach, got %+v", rep)
	}
	evs := tr.Recent("victim", 0)
	if len(evs) != 1 || evs[0].Kind != obs.SLOBreach {
		t.Fatalf("victim trace = %v, want one slo-breach event", evs)
	}
	for _, want := range []string{"noisy-neighbor:noisy@cloudB/b-east", "slo-breach:connect-p99"} {
		if !strings.Contains(evs[0].Cause, want) {
			t.Errorf("cause %q missing %q", evs[0].Cause, want)
		}
	}
}

// TestPermitLagResolvesAtFirstAdmission pins the live permit-lag sampler
// end to end in core: a set_permit stamps its target, the first
// admission check of that target — by any source, admitted or not —
// resolves exactly one sample into the stamping tenant's shard for the
// target's region, and later checks resolve nothing. Each check, through
// Probe or Admitted, costs one permit lookup.
func TestPermitLagResolvesAtFirstAdmission(t *testing.T) {
	c, w, pa, pb, _ := fig1Cloud(t)
	eip1, eip2, dst, _ := populate(t, c, w, pa, pb)
	plane := slo.NewPlane(slo.Config{Window: time.Hour, LagSampleEvery: 1})
	c.EnableSLO(plane)

	lagSamples := func() (total uint64, region string) {
		for _, s := range plane.Snapshot() {
			if s.Lag.Count > 0 {
				if s.Key.Tenant != "acme" {
					t.Errorf("lag sample in shard %+v, want tenant acme", s.Key)
				}
				total += s.Lag.Count
				region = s.Key.Region
			}
		}
		return total, region
	}

	if err := c.Tenant("acme").SetPermitList(dst, []permit.Entry{addr.NewPrefix(eip1, 32)}); err != nil {
		t.Fatal(err)
	}
	if got := plane.PendingLagSamples(); got != 1 {
		t.Fatalf("PendingLagSamples after set_permit = %d, want 1", got)
	}
	lookups := pb.Permits.Lookups.Load()
	// eip2 is not on the list: a denied check is still the moment the
	// update became visible to admission.
	if _, _, err := c.Tenant("acme").Probe(eip2, dst); err == nil {
		t.Fatal("probe from a source off the list was admitted")
	}
	if got := plane.PendingLagSamples(); got != 0 {
		t.Fatalf("PendingLagSamples after the first check = %d, want 0", got)
	}
	if n, region := lagSamples(); n != 1 || region != c.shardKeyOf("acme", dst).Region {
		t.Fatalf("first check resolved %d samples into region %q, want 1 into %q",
			n, region, c.shardKeyOf("acme", dst).Region)
	}
	if !c.Admitted(eip1, dst) {
		t.Fatal("listed source denied")
	}
	if n, _ := lagSamples(); n != 1 {
		t.Fatalf("second check moved the lag histogram: %d samples, want 1", n)
	}
	if got := pb.Permits.Lookups.Load() - lookups; got != 2 {
		t.Fatalf("two admission checks cost %d permit lookups, want 2", got)
	}
}
