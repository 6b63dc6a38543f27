package qos

import (
	"testing"

	"declnet/internal/topo"
)

func TestPotatoPaths(t *testing.T) {
	w := topo.BuildFig1(1)
	src := topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)
	dst := topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1)

	hot, err := PathFor(w.Graph, HotPotato, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := PathFor(w.Graph, ColdPotato, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	ded, err := PathFor(w.Graph, Dedicated, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	count := func(p topo.Path, k topo.LinkKind) int {
		n := 0
		for _, l := range p {
			if l.Kind == k {
				n++
			}
		}
		return n
	}
	// Dedicated path must avoid transit entirely and cross the IXP.
	if count(ded, topo.Transit) != 0 {
		t.Fatalf("dedicated path crossed transit: %v", ded.Nodes())
	}
	if count(ded, topo.Dedicated) != 2 {
		t.Fatalf("dedicated path uses %d dedicated links, want 2", count(ded, topo.Dedicated))
	}
	// Hot potato uses no more backbone links than cold; cold uses no more
	// transit links than hot (the defining tradeoff).
	if count(hot, topo.Backbone) > count(cold, topo.Backbone) {
		t.Fatalf("hot uses more backbone (%d) than cold (%d)",
			count(hot, topo.Backbone), count(cold, topo.Backbone))
	}
	if count(cold, topo.Transit) > count(hot, topo.Transit) {
		t.Fatalf("cold uses more transit (%d) than hot (%d)",
			count(cold, topo.Transit), count(hot, topo.Transit))
	}
}

func TestDedicatedPathAbsent(t *testing.T) {
	// A world with no dedicated circuits must fail Dedicated policy.
	b := topo.NewBuilder()
	b.AddProvider(topo.ProviderSpec{Name: "p1", Regions: []topo.RegionSpec{{Name: "r1", Zones: 1, HostsPerZone: 1}}})
	b.AddProvider(topo.ProviderSpec{Name: "p2", Regions: []topo.RegionSpec{{Name: "r2", Zones: 1, HostsPerZone: 1}}})
	tr := b.AddInternetCore(1)
	b.AttachBorderToInternet("p1", "r1", tr[0])
	b.AttachBorderToInternet("p2", "r2", tr[0])
	g := b.Graph()
	src := topo.HostID("p1", "r1", "az1", 1)
	dst := topo.HostID("p2", "r2", "az1", 1)
	if _, err := PathFor(g, Dedicated, src, dst); err == nil {
		t.Fatal("Dedicated policy found a path with no dedicated circuits")
	}
	if _, err := PathFor(g, HotPotato, src, dst); err != nil {
		t.Fatalf("hot potato failed on public-only world: %v", err)
	}
}

func TestPotatoPolicyString(t *testing.T) {
	if HotPotato.String() != "hot" || ColdPotato.String() != "cold" || Dedicated.String() != "dedicated" {
		t.Fatal("potato names wrong")
	}
	if _, err := PathFor(topo.New(), PotatoPolicy(99), "a", "b"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
