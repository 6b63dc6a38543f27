package declnet

import (
	"testing"
	"time"
)

func fig1(t *testing.T) (*World, *Tenant) {
	t.Helper()
	w, err := NewFig1World(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	return w, w.Tenant("acme")
}

func TestFacadeEndToEnd(t *testing.T) {
	w, acme := fig1(t)
	f := w.Fig1

	client, err := acme.RequestEIP(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))
	if err != nil {
		t.Fatal(err)
	}
	be1, err := acme.RequestEIP(w.Host(f.CloudB, f.RegionsB[0], "az1", 1))
	if err != nil {
		t.Fatal(err)
	}
	be2, err := acme.RequestEIP(w.Host(f.CloudB, f.RegionsB[0], "az2", 1))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := acme.RequestSIP(f.CloudB)
	if err != nil {
		t.Fatal(err)
	}
	if err := acme.Bind(be1, svc, 1); err != nil {
		t.Fatal(err)
	}
	if err := acme.Bind(be2, svc, 1); err != nil {
		t.Fatal(err)
	}
	// Default-off first.
	if _, err := acme.Connect(client, svc, ConnectOpts{SizeBytes: 1}); err == nil {
		t.Fatal("default-off violated via facade")
	}
	if err := acme.SetPermitList(svc, []Prefix{Exact(client)}); err != nil {
		t.Fatal(err)
	}
	var fct time.Duration
	if _, err := acme.Transfer(client, svc, 1e6, func(d time.Duration) { fct = d }); err != nil {
		t.Fatal(err)
	}
	w.Run()
	if fct == 0 {
		t.Fatal("transfer never completed")
	}
	rtt, _, err := acme.Probe(client, svc)
	if err != nil || rtt <= 0 {
		t.Fatalf("probe = %v, %v", rtt, err)
	}
}

func TestFacadeQoSAndPotato(t *testing.T) {
	w, acme := fig1(t)
	f := w.Fig1
	if err := acme.SetQoS(f.CloudA, f.RegionsA[0], 1e9); err != nil {
		t.Fatal(err)
	}
	if err := acme.SetPotato(f.CloudA, ColdPotato); err != nil {
		t.Fatal(err)
	}
	if err := acme.SetQoS("nope", "r", 1); err == nil {
		t.Fatal("unknown provider accepted")
	}
}

func TestFacadeGroups(t *testing.T) {
	w, acme := fig1(t)
	f := w.Fig1
	a, _ := acme.RequestEIP(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))
	b, _ := acme.RequestEIP(w.Host(f.CloudA, f.RegionsA[0], "az1", 2))
	dst, _ := acme.RequestEIP(w.Host(f.CloudA, f.RegionsA[1], "az1", 1))
	if err := acme.CreateGroup("web", a, b); err != nil {
		t.Fatal(err)
	}
	if err := acme.SetPermitList(dst, nil, "web"); err != nil {
		t.Fatal(err)
	}
	if _, err := acme.Connect(a, dst, ConnectOpts{SizeBytes: -1}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadePermitRevoke(t *testing.T) {
	w, acme := fig1(t)
	f := w.Fig1
	src, _ := acme.RequestEIP(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))
	dst, _ := acme.RequestEIP(w.Host(f.CloudB, f.RegionsB[0], "az1", 1))
	if err := acme.Permit(dst, Exact(src)); err != nil {
		t.Fatal(err)
	}
	if _, err := acme.Connect(src, dst, ConnectOpts{SizeBytes: -1}); err != nil {
		t.Fatal(err)
	}
	if err := acme.Revoke(dst, Exact(src)); err != nil {
		t.Fatal(err)
	}
	if _, err := acme.Connect(src, dst, ConnectOpts{SizeBytes: -1}); err == nil {
		t.Fatal("revoked source still admitted")
	}
	if err := acme.ReleaseEIP(dst); err != nil {
		t.Fatal(err)
	}
	if err := acme.ReleaseEIP(dst); err == nil {
		t.Fatal("double release accepted")
	}
}

func TestFacadeUnbindAndVMCap(t *testing.T) {
	w, acme := fig1(t)
	f := w.Fig1
	be, _ := acme.RequestEIP(w.Host(f.CloudB, f.RegionsB[0], "az1", 1))
	sip, _ := acme.RequestSIP(f.CloudB)
	if err := acme.Bind(be, sip, 1); err != nil {
		t.Fatal(err)
	}
	client, _ := acme.RequestEIP(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))
	// Egress caps bind to the sending endpoint.
	if err := acme.SetVMEgressCap(client, 100e6); err != nil {
		t.Fatal(err)
	}
	acme.SetPermitList(be, []Prefix{Exact(client)})
	conn, err := acme.Connect(client, be, ConnectOpts{SizeBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := conn.Flow.Rate(); got > 100e6*1.01 {
		t.Fatalf("VM cap not enforced via facade: rate %v", got)
	}
	conn.Close()
	if err := acme.Unbind(be, sip); err != nil {
		t.Fatal(err)
	}
	if err := acme.Unbind(be, sip); err == nil {
		t.Fatal("double unbind accepted")
	}
	badIP, _ := ParseIP("9.9.9.9")
	if err := acme.SetVMEgressCap(badIP, 1); err == nil {
		t.Fatal("cap on ungranted address accepted")
	}
}

func TestFacadeNamesAndClasses(t *testing.T) {
	w, acme := fig1(t)
	f := w.Fig1
	src, _ := acme.RequestEIP(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))
	dst, _ := acme.RequestEIP(w.Host(f.CloudB, f.RegionsB[0], "az1", 1))
	acme.SetPermitList(dst, []Prefix{Exact(src)})
	if err := acme.Register("db", dst); err != nil {
		t.Fatal(err)
	}
	got, ok := acme.Resolve("db")
	if !ok || got != dst {
		t.Fatalf("Resolve = %v,%v", got, ok)
	}
	conn, err := acme.ConnectName(src, "db", ConnectOpts{SizeBytes: -1, Class: BestEffort})
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if !acme.Unregister("db") {
		t.Fatal("unregister failed")
	}
	if _, err := acme.ConnectName(src, "db", ConnectOpts{}); err == nil {
		t.Fatal("connect to unregistered name succeeded")
	}
}

func TestFacadeOnPrem(t *testing.T) {
	w, acme := fig1(t)
	f := w.Fig1
	cloud, _ := acme.RequestEIP(w.Host(f.CloudA, f.RegionsA[0], "az1", 1))
	op, err := acme.RequestEIP(w.OnPremHost(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := acme.Permit(op, Exact(cloud)); err != nil {
		t.Fatal(err)
	}
	if _, err := acme.Connect(cloud, op, ConnectOpts{SizeBytes: -1}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeErrors(t *testing.T) {
	w, acme := fig1(t)
	if _, err := acme.RequestEIP("not-a-node"); err == nil {
		t.Fatal("unknown VM accepted")
	}
	if _, err := acme.RequestSIP("not-a-provider"); err == nil {
		t.Fatal("unknown provider accepted")
	}
	ip, _ := ParseIP("9.9.9.9")
	if err := acme.Permit(ip, Anywhere()); err == nil {
		t.Fatal("permit on ungranted address accepted")
	}
	_ = w
}

func TestHelpers(t *testing.T) {
	ip, err := ParseIP("10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	if Exact(ip).Len != 32 {
		t.Fatal("Exact not /32")
	}
	if Anywhere().Len != 0 {
		t.Fatal("Anywhere not /0")
	}
	if _, err := ParsePrefix("10.0.0.0/8"); err != nil {
		t.Fatal(err)
	}
	if Entry("10.0.0.0/8").Len != 8 {
		t.Fatal("Entry parse failed")
	}
}

func TestWorldClocks(t *testing.T) {
	w, _ := fig1(t)
	w.RunFor(time.Second)
	if w.Now() != time.Second {
		t.Fatalf("Now = %v", w.Now())
	}
}

// TestWorldFaultOps: World.Fail and Heal take node and region targets,
// count each on the injector, and refuse an unknown kind, an unknown
// node or a region target that is not provider/region.
func TestWorldFaultOps(t *testing.T) {
	w, _ := fig1(t)
	f := w.Fig1
	node := string(w.Host(f.CloudB, f.RegionsB[0], "az1", 1))
	region := f.CloudA + "/" + f.RegionsA[0]
	for _, op := range []struct{ kind, target string }{{"node", node}, {"region", region}} {
		if err := w.Fail(op.kind, op.target); err != nil {
			t.Fatalf("fail %s: %v", op.kind, err)
		}
		if err := w.Heal(op.kind, op.target); err != nil {
			t.Fatalf("heal %s: %v", op.kind, err)
		}
	}
	if inj := w.Faults().Inj; inj.NodeFailures != 1 || inj.RegionFailures != 1 || !inj.NodeUp(NodeID(node)) {
		t.Fatalf("after fail+heal: node failures %d, region failures %d, node up %v",
			inj.NodeFailures, inj.RegionFailures, inj.NodeUp(NodeID(node)))
	}
	for _, bad := range []struct{ kind, target string }{
		{"volcano", "x"}, {"node", "no-such-node"}, {"region", "cloudA"}, {"region", "cloudA/"},
	} {
		if err := w.Fail(bad.kind, bad.target); err == nil {
			t.Errorf("fail %s %q accepted", bad.kind, bad.target)
		}
	}
}
