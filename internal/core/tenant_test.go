package core

import (
	"reflect"
	"testing"

	"declnet/internal/intent"
	"declnet/internal/topo"
)

// TestTenantIsTheOnlyVerbSurface: Tenant is the one Go facade for the
// tenant verbs and reads. Neither Provider nor Cloud may export a method
// of the same name, so no second shim layer can grow back beside it.
func TestTenantIsTheOnlyVerbSurface(t *testing.T) {
	tenant := reflect.TypeOf(&Tenant{})
	for _, other := range []reflect.Type{reflect.TypeOf(&Provider{}), reflect.TypeOf(&Cloud{})} {
		for i := 0; i < tenant.NumMethod(); i++ {
			name := tenant.Method(i).Name
			if _, ok := other.MethodByName(name); ok {
				t.Errorf("%s exports %s, which belongs to *Tenant alone", other, name)
			}
		}
	}
}

// releasedAndRegranted runs the stale-reference scenario: tenant a
// groups and names x, releases it, and tenant b is granted the same
// address from the pool as y. It returns a's permit target and y.
func releasedAndRegranted(t *testing.T, c *Cloud, w *topo.Fig1World) (target, y EIP) {
	t.Helper()
	a, b := c.Tenant("a"), c.Tenant("b")
	host := topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)
	target, err := a.RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az2", 1))
	if err != nil {
		t.Fatal(err)
	}
	x, err := a.RequestEIP(host)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CreateGroup("web", x); err != nil {
		t.Fatal(err)
	}
	if err := a.Register("db", x); err != nil {
		t.Fatal(err)
	}
	if err := a.ReleaseEIP(x); err != nil {
		t.Fatal(err)
	}
	if y, err = b.RequestEIP(host); err != nil {
		t.Fatal(err)
	}
	if y != x {
		t.Fatalf("pool granted %s after releasing %s; the scenario needs the same address", y, x)
	}
	if err := a.SetPermitList(target, nil, "web"); err != nil {
		t.Fatal(err)
	}
	return target, y
}

// TestReleaseLeavesGroupsAndNames: a released address leaves its
// tenant's groups and names, so when the pool hands it to another
// tenant, neither a group-expanded permit list nor a name reaches the
// newcomer.
func TestReleaseLeavesGroupsAndNames(t *testing.T) {
	c, w, _, _, _ := fig1Cloud(t)
	target, y := releasedAndRegranted(t, c, w)
	if c.Admitted(y, target) {
		t.Errorf("tenant b's %s is admitted to a's %s through a's group", y, target)
	}
	if ip, ok := c.Tenant("a").Resolve("db"); ok {
		t.Errorf("a's name db still resolves, to %s", ip)
	}
}

// TestReleaseLeavesGroupsAndNamesAcrossRestart: the release rule lives
// in declared state too, so a world rebuilt from the journal digests as
// the world that never crashed.
func TestReleaseLeavesGroupsAndNamesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	c, w, _, _, _ := fig1Cloud(t)
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableIntent(l)
	releasedAndRegranted(t, c, w)
	// Crash: no Close; the journal alone carries the world.
	l2, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	c2, _, _, _, _ := fig1Cloud(t)
	if err := c2.RestoreIntent(l2.State()); err != nil {
		t.Fatal(err)
	}
	if got, want := c2.StateDigest(), c.StateDigest(); got != want {
		t.Fatalf("digest after restart %s, uncrashed world %s", got, want)
	}
}
