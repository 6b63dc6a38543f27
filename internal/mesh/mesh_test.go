package mesh

import (
	"testing"
	"time"

	"declnet/internal/app"
	"declnet/internal/core"
	"declnet/internal/simplane"
	"declnet/internal/topo"
)

func testMesh(t *testing.T) (*Mesh, *topo.Fig1World) {
	t.Helper()
	w := topo.BuildFig1(3)
	c := core.NewCloud(w.Graph, simplane.New(1, w.Graph))
	if _, _, _, err := core.AddFig1Providers(c, w); err != nil {
		t.Fatal(err)
	}
	return New(c, "acme"), w
}

func ordersService(provider string) ServiceConfig {
	return ServiceConfig{
		Name: "orders", Provider: provider, Port: 443,
		Operations: []app.Operation{
			{Name: "get", Scope: "read", Schema: []string{"id"}},
		},
	}
}

func TestMeshCallGraph(t *testing.T) {
	m, w := testMesh(t)
	if _, err := m.AddService(ordersService(w.CloudB)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddService(ServiceConfig{Name: "web", Provider: w.CloudA}); err != nil {
		t.Fatal(err)
	}
	webWL, err := m.Deploy("web", topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Deploy("orders", topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1), false); err != nil {
		t.Fatal(err)
	}
	// Before Allow: the derived permit lists admit nobody.
	orders, _ := m.Service("orders")
	tok := orders.Gateway().IssueToken("web", "read")
	req := app.Request{Bearer: tok, Op: "get", Args: map[string]string{"id": "1"}}
	if _, err := m.Call("web", webWL, "orders", CallOpts{Request: req}); err == nil {
		t.Fatal("call admitted without Allow (default-off broken in mesh)")
	}
	if err := m.Allow("web", "orders"); err != nil {
		t.Fatal(err)
	}
	res, err := m.Call("web", webWL, "orders", CallOpts{Request: req})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != app.Served || res.RTT <= 0 || res.Attempts != 1 {
		t.Fatalf("result = %+v", res)
	}
	// Forbid revokes network admission again.
	if err := m.Forbid("web", "orders"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("web", webWL, "orders", CallOpts{Request: req}); err == nil {
		t.Fatal("call admitted after Forbid")
	}
}

func TestMeshDeployUpdatesPermits(t *testing.T) {
	m, w := testMesh(t)
	m.AddService(ordersService(w.CloudB))
	m.AddService(ServiceConfig{Name: "web", Provider: w.CloudA})
	m.Allow("web", "orders")
	m.Deploy("orders", topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1), false)
	// A web workload deployed AFTER Allow must still be admitted: the
	// mesh reconciles permit lists on every deploy.
	late, err := m.Deploy("web", topo.HostID(w.CloudA, w.RegionsA[0], "az2", 1), false)
	if err != nil {
		t.Fatal(err)
	}
	orders, _ := m.Service("orders")
	tok := orders.Gateway().IssueToken("web", "read")
	req := app.Request{Bearer: tok, Op: "get", Args: map[string]string{"id": "1"}}
	if _, err := m.Call("web", late, "orders", CallOpts{Request: req}); err != nil {
		t.Fatalf("late workload rejected: %v", err)
	}
}

func TestMeshRetireRevokes(t *testing.T) {
	m, w := testMesh(t)
	m.AddService(ordersService(w.CloudB))
	m.AddService(ServiceConfig{Name: "web", Provider: w.CloudA})
	m.Allow("web", "orders")
	wl, _ := m.Deploy("web", topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1), false)
	m.Deploy("orders", topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1), false)
	orders, _ := m.Service("orders")
	if err := m.Retire("web", wl); err != nil {
		t.Fatal(err)
	}
	// The retired workload's EIP no longer appears in orders' permits.
	if m.cloud.Admitted(wl.EIP, orders.SIP()) {
		t.Fatal("retired workload still admitted")
	}
	if err := m.Retire("web", wl); err == nil {
		t.Fatal("double retire succeeded")
	}
}

func TestMeshCanarySplit(t *testing.T) {
	m, w := testMesh(t)
	m.AddService(ordersService(w.CloudB))
	m.AddService(ServiceConfig{Name: "web", Provider: w.CloudA})
	m.Allow("web", "orders")
	src, _ := m.Deploy("web", topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1), false)
	stable, _ := m.Deploy("orders", topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1), false)
	canary, _ := m.Deploy("orders", topo.HostID(w.CloudB, w.RegionsB[0], "az2", 1), true)
	if err := m.SetCanaryWeight("orders", 25); err != nil {
		t.Fatal(err)
	}
	orders, _ := m.Service("orders")
	tok := orders.Gateway().IssueToken("web", "read")
	req := app.Request{Bearer: tok, Op: "get", Args: map[string]string{"id": "1"}}
	hits := map[core.EIP]int{}
	for i := 0; i < 100; i++ {
		res, err := m.Call("web", src, "orders", CallOpts{Request: req})
		if err != nil {
			t.Fatal(err)
		}
		hits[res.Backend]++
	}
	if hits[canary.EIP] != 25 || hits[stable.EIP] != 75 {
		t.Fatalf("canary split = %v, want 25/75", hits)
	}
	if err := m.SetCanaryWeight("orders", 150); err == nil {
		t.Fatal("out-of-range canary weight accepted")
	}
}

func TestMeshRetries(t *testing.T) {
	m, w := testMesh(t)
	m.AddService(ordersService(w.CloudB))
	m.AddService(ServiceConfig{Name: "web", Provider: w.CloudA})
	m.Allow("web", "orders")
	src, _ := m.Deploy("web", topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1), false)
	m.Deploy("orders", topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1), false)
	orders, _ := m.Service("orders")
	tok := orders.Gateway().IssueToken("web", "read")
	req := app.Request{Bearer: tok, Op: "get", Args: map[string]string{"id": "1"}}
	// Over many calls across a lossy transit path, with retries the
	// failure rate must collapse.
	failures := 0
	for i := 0; i < 300; i++ {
		if _, err := m.Call("web", src, "orders", CallOpts{Request: req, Retries: 3}); err != nil {
			failures++
		}
	}
	if failures > 1 {
		t.Fatalf("failures with retries = %d", failures)
	}
}

func TestMeshCircuitBreaker(t *testing.T) {
	m, w := testMesh(t)
	m.AddService(ServiceConfig{
		Name: "orders", Provider: w.CloudB,
		Operations:       []app.Operation{{Name: "get", Scope: "read"}},
		BreakerThreshold: 3,
		BreakerCooldown:  time.Second,
	})
	m.AddService(ServiceConfig{Name: "web", Provider: w.CloudA})
	m.Allow("web", "orders")
	src, _ := m.Deploy("web", topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1), false)
	m.Deploy("orders", topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1), false)
	// Anonymous requests fail at the gateway; three of them trip the
	// breaker.
	bad := CallOpts{Request: app.Request{Op: "get"}}
	for i := 0; i < 3; i++ {
		res, err := m.Call("web", src, "orders", bad)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome == app.Served {
			t.Fatal("anonymous request served")
		}
	}
	if _, err := m.Call("web", src, "orders", bad); err == nil {
		t.Fatal("breaker did not open after threshold failures")
	}
	// After the cooldown, a half-open probe goes through; a good request
	// closes the breaker.
	eng := m.cloud.Plane().(*simplane.Plane).Eng
	eng.RunUntil(eng.Now() + 2*time.Second)
	orders, _ := m.Service("orders")
	tok := orders.Gateway().IssueToken("web", "read")
	good := CallOpts{Request: app.Request{Bearer: tok, Op: "get"}}
	res, err := m.Call("web", src, "orders", good)
	if err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	if res.Outcome != app.Served {
		t.Fatalf("probe outcome = %v", res.Outcome)
	}
	if _, err := m.Call("web", src, "orders", good); err != nil {
		t.Fatal("breaker did not close after success")
	}
}

func TestMeshValidation(t *testing.T) {
	m, w := testMesh(t)
	if _, err := m.AddService(ServiceConfig{Name: "x", Provider: "nope"}); err == nil {
		t.Fatal("unknown provider accepted")
	}
	m.AddService(ordersService(w.CloudB))
	if _, err := m.AddService(ordersService(w.CloudB)); err == nil {
		t.Fatal("duplicate service accepted")
	}
	if _, err := m.Deploy("ghost", "n", false); err == nil {
		t.Fatal("deploy to unknown service accepted")
	}
	if err := m.Allow("ghost", "orders"); err == nil {
		t.Fatal("unknown caller accepted")
	}
	if err := m.Allow("orders", "ghost"); err == nil {
		t.Fatal("unknown callee accepted")
	}
	if _, err := m.Call("orders", &Workload{}, "ghost", CallOpts{}); err == nil {
		t.Fatal("call to unknown callee accepted")
	}
}

func TestMeshNameRegistration(t *testing.T) {
	m, w := testMesh(t)
	s, err := m.AddService(ordersService(w.CloudB))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.cloud.Tenant("acme").Resolve("orders")
	if !ok || got != s.SIP() {
		t.Fatalf("service name not registered: %v,%v", got, ok)
	}
}
