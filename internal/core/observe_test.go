package core

import (
	"strings"
	"testing"
	"time"

	"declnet/internal/addr"
	"declnet/internal/metrics"
	"declnet/internal/obs"
	"declnet/internal/permit"
	"declnet/internal/topo"
)

// explainStage finds one stage's step in an explanation.
func explainStage(t *testing.T, ex *Explanation, stage string) ExplainStep {
	t.Helper()
	for _, s := range ex.Steps {
		if s.Stage == stage {
			return s
		}
	}
	t.Fatalf("explanation has no %q stage: %+v", stage, ex.Steps)
	return ExplainStep{}
}

func TestExplainHealthyPath(t *testing.T) {
	policy := FaultPolicy{HealthInterval: 100 * time.Millisecond}
	c, _, client, sip, _, _, _, _ := failoverWorld(t, policy)
	c.EnableObservability(obs.NewTracer(0), metrics.NewRegistry())
	c.Eng.RunUntil(500 * time.Millisecond)

	ex, err := c.Tenant("acme").Explain(client, sip)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Reachable || ex.RootCause != "" {
		t.Fatalf("healthy path not reachable: cause=%q", ex.RootCause)
	}
	adm := explainStage(t, ex, "admission")
	if adm.Verdict != "ok" || !strings.Contains(adm.Detail, "entry=") || !strings.Contains(adm.Detail, "epoch=") {
		t.Fatalf("admission step lacks matched entry/epoch: %+v", adm)
	}
	bal := explainStage(t, ex, "balancer")
	if bal.Verdict != "ok" || !strings.Contains(bal.Detail, "healthy=2/2") {
		t.Fatalf("balancer step = %+v", bal)
	}
	// Explain must not advance the balancer: Preview twice, same backend.
	ex2, err := c.Tenant("acme").Explain(client, sip)
	if err != nil {
		t.Fatal(err)
	}
	if explainStage(t, ex2, "balancer").Detail != bal.Detail {
		t.Fatal("Explain mutated the balancer's smooth-WRR state")
	}
	// The replay itself must be traced.
	evs := c.Tracer().Recent("acme", 0)
	var sawExplain bool
	for _, ev := range evs {
		if ev.Kind == obs.Explain {
			sawExplain = true
		}
	}
	if !sawExplain {
		t.Fatal("no obs.Explain event recorded")
	}
}

func TestExplainPermitDeny(t *testing.T) {
	c, w, _, _, _ := fig1Cloud(t)
	c.EnableObservability(obs.NewTracer(0), nil)
	client, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	if err != nil {
		t.Fatal(err)
	}
	// No permit list at all: pure default-off.
	ex, err := c.Tenant("acme").Explain(client, dst)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Reachable {
		t.Fatal("default-off dst explained as reachable")
	}
	if !strings.HasPrefix(ex.RootCause, "permit-deny:") || !strings.Contains(ex.RootCause, "no-permit-list") {
		t.Fatalf("RootCause = %q", ex.RootCause)
	}
	// A list that excludes the client: deny with different evidence.
	other := addr.NewPrefix(client+1, 32)
	if err := c.Tenant("acme").SetPermitList(dst, []permit.Entry{other}); err != nil {
		t.Fatal(err)
	}
	ex, err = c.Tenant("acme").Explain(client, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.RootCause, "src-not-in-permit-list") {
		t.Fatalf("RootCause = %q", ex.RootCause)
	}
}

func TestExplainNamesNodeAndRegionFaults(t *testing.T) {
	policy := FaultPolicy{HealthInterval: 100 * time.Millisecond}
	c, m, client, sip, _, _, n1, n2 := failoverWorld(t, policy)
	c.EnableObservability(obs.NewTracer(0), metrics.NewRegistry())

	// Fail one backend node: SIP still reachable via the survivor, and the
	// destination stage names the survivor.
	c.Eng.Schedule(time.Second, func() {
		if err := m.Inj.FailNode(n1); err != nil {
			t.Error(err)
		}
	})
	c.Eng.RunUntil(time.Second + (DownAfter+1)*policy.HealthInterval)
	ex, err := c.Tenant("acme").Explain(client, sip)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Reachable {
		t.Fatalf("one survivor left but unreachable: %q", ex.RootCause)
	}
	// Fail the whole region: no healthy backend, root cause names it.
	prov, region := "cloudB", strings.Split(string(n2), "/")[1]
	if err := m.Inj.FailRegion(prov, region); err != nil {
		t.Fatal(err)
	}
	c.Eng.RunUntil(c.Eng.Now() + (DownAfter+1)*policy.HealthInterval)
	ex, err = c.Tenant("acme").Explain(client, sip)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Reachable {
		t.Fatal("region down but explained reachable")
	}
	if !strings.HasPrefix(ex.RootCause, "no-healthy-backend:") ||
		!strings.Contains(ex.RootCause, "region-down:"+prov+"/"+region) {
		t.Fatalf("RootCause = %q", ex.RootCause)
	}
	if m.Failovers == 0 {
		t.Fatal("monitor recorded no failovers")
	}
}

func TestExplainPendingPermit(t *testing.T) {
	policy := FaultPolicy{HealthInterval: 100 * time.Millisecond}
	c, w, _, _, _ := fig1Cloud(t)
	m := c.EnableFaults(policy)
	c.EnableObservability(obs.NewTracer(0), metrics.NewRegistry())
	client, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	if err != nil {
		t.Fatal(err)
	}
	node := topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1)
	dst, err := c.Tenant("acme").RequestEIP(node)
	if err != nil {
		t.Fatal(err)
	}
	// Partition the endpoint, then issue the permit update: it must defer,
	// and Explain must say "pending", not a plain deny.
	if err := m.Inj.FailNode(node); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").SetPermitList(dst, []permit.Entry{addr.NewPrefix(client, 32)}); err != nil {
		t.Fatal(err)
	}
	ex, err := c.Tenant("acme").Explain(client, dst)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Reachable {
		t.Fatal("pending permit explained as reachable")
	}
	if !strings.HasPrefix(ex.RootCause, "permit-pending:") ||
		!strings.Contains(ex.RootCause, "node-down:"+string(node)) {
		t.Fatalf("RootCause = %q", ex.RootCause)
	}
	// Heal; the retry lands and the explanation flips to reachable.
	if err := m.Inj.RestoreNode(node); err != nil {
		t.Fatal(err)
	}
	c.Eng.RunUntil(c.Eng.Now() + 3*permitRetryInterval)
	ex, err = c.Tenant("acme").Explain(client, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Reachable {
		t.Fatalf("after heal+retry still unreachable: %q", ex.RootCause)
	}
	if reg := c.Registry(); reg.Histogram("declnet_permit_propagation_seconds", "").Snapshot().Count == 0 {
		t.Fatal("permit propagation lag not observed")
	}
}

func TestExplainUnknownTenant(t *testing.T) {
	c, w, _, _, _ := fig1Cloud(t)
	client, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tenant("mallory").Explain(client, client); err == nil {
		t.Fatal("foreign tenant could explain another tenant's EIP")
	}
	if _, err := c.Tenant("acme").Explain(client, addr.IP(1)); err == nil {
		t.Fatal("ungranted destination did not error")
	}
}

func TestConnectTracesDecisions(t *testing.T) {
	policy := FaultPolicy{HealthInterval: 100 * time.Millisecond}
	c, _, client, sip, _, _, _, _ := failoverWorld(t, policy)
	tr := obs.NewTracer(0)
	reg := metrics.NewRegistry()
	c.EnableObservability(tr, reg)
	cn, err := c.Tenant("acme").Connect(client, sip, ConnectOpts{SizeBytes: 1e3})
	if err != nil {
		t.Fatal(err)
	}
	cn.Close()
	kinds := map[obs.Kind]bool{}
	for _, ev := range tr.Recent("acme", 0) {
		kinds[ev.Kind] = true
	}
	for _, want := range []obs.Kind{obs.PermitAllow, obs.SIPPick, obs.PathSelect} {
		if !kinds[want] {
			t.Errorf("no %s event traced; got %v", want, kinds)
		}
	}
	if got := reg.Counter("declnet_connects_total", "", metrics.L("outcome", "ok")).Value(); got != 1 {
		t.Fatalf("connects ok counter = %d, want 1", got)
	}
	// A denied connect traces the deny with evidence.
	if _, err := c.Tenant("acme").Connect(client, client, ConnectOpts{}); err == nil {
		t.Fatal("self-connect without permit list should deny")
	}
	var sawDeny bool
	for _, ev := range tr.Recent("acme", 0) {
		if ev.Kind == obs.PermitDeny && strings.Contains(ev.Cause, "no-permit-list") {
			sawDeny = true
		}
	}
	if !sawDeny {
		t.Fatal("deny not traced with no-permit-list cause")
	}
	if got := reg.Counter("declnet_connects_total", "", metrics.L("outcome", "denied")).Value(); got != 1 {
		t.Fatalf("connects denied counter = %d, want 1", got)
	}
}
