package topo

import (
	"math/rand"
	"testing"
	"time"
)

func smallGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for _, id := range []NodeID{"a", "b", "c", "d"} {
		g.MustAddNode(Node{ID: id, Kind: RegionRouter})
	}
	// a-b (fast), b-c (fast), a-c (slow direct), c-d
	g.MustConnect("ab", "a", "b", Backbone, Gbps, 5*time.Millisecond, 0, 0)
	g.MustConnect("bc", "b", "c", Backbone, Gbps, 5*time.Millisecond, 0, 0)
	g.MustConnect("ac", "a", "c", Transit, Gbps, 50*time.Millisecond, time.Millisecond, 1e-3)
	g.MustConnect("cd", "c", "d", Backbone, 100*Mbps, 5*time.Millisecond, 0, 0)
	return g
}

func TestAddNodeDuplicate(t *testing.T) {
	g := New()
	g.MustAddNode(Node{ID: "x"})
	if _, err := g.AddNode(Node{ID: "x"}); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

func TestAddLinkValidation(t *testing.T) {
	g := New()
	g.MustAddNode(Node{ID: "x"})
	g.MustAddNode(Node{ID: "y"})
	cases := []Link{
		{ID: "l1", From: "x", To: "nope", Capacity: 1},
		{ID: "l2", From: "nope", To: "y", Capacity: 1},
		{ID: "l3", From: "x", To: "y", Capacity: 0},
		{ID: "l4", From: "x", To: "y", Capacity: 1, Loss: 1.0},
		{ID: "l5", From: "x", To: "y", Capacity: 1, Loss: -0.1},
	}
	for _, l := range cases {
		if _, err := g.AddLink(l); err == nil {
			t.Errorf("invalid link %q accepted", l.ID)
		}
	}
	if _, err := g.AddLink(Link{ID: "ok", From: "x", To: "y", Capacity: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(Link{ID: "ok", From: "x", To: "y", Capacity: 1}); err == nil {
		t.Fatal("duplicate link accepted")
	}
}

func TestShortestPathPrefersLowDelay(t *testing.T) {
	g := smallGraph(t)
	p, err := g.ShortestPath("a", "c", PathOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Delay(); got != 10*time.Millisecond {
		t.Fatalf("path delay = %v, want 10ms (a-b-c)", got)
	}
	nodes := p.Nodes()
	if len(nodes) != 3 || nodes[1] != "b" {
		t.Fatalf("path nodes = %v, want through b", nodes)
	}
}

func TestShortestPathForbid(t *testing.T) {
	g := smallGraph(t)
	// Forbidding backbone forces the direct transit link.
	p, err := g.ShortestPath("a", "c", PathOpts{Forbid: map[LinkKind]bool{Backbone: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 1 || p[0].Kind != Transit {
		t.Fatalf("forbid path = %v, want single transit hop", p.Nodes())
	}
}

func TestShortestPathAvoid(t *testing.T) {
	g := New()
	for _, id := range []NodeID{"a", "b"} {
		g.MustAddNode(Node{ID: id})
	}
	// Only a transit link exists; Avoid must still use it.
	g.MustConnect("ab", "a", "b", Transit, Gbps, 5*time.Millisecond, 0, 0)
	p, err := g.ShortestPath("a", "b", PathOpts{Avoid: map[LinkKind]bool{Transit: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 1 {
		t.Fatalf("avoid-only path = %v", p.Nodes())
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := smallGraph(t)
	g.MustAddNode(Node{ID: "island"})
	if _, err := g.ShortestPath("a", "island", PathOpts{}); err == nil {
		t.Fatal("unreachable destination returned a path")
	}
	if _, err := g.ShortestPath("missing", "a", PathOpts{}); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, err := g.ShortestPath("a", "missing", PathOpts{}); err == nil {
		t.Fatal("unknown destination accepted")
	}
}

func TestShortestPathToSelf(t *testing.T) {
	g := smallGraph(t)
	p, err := g.ShortestPath("a", "a", PathOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 0 {
		t.Fatalf("self path = %v, want empty", p.Nodes())
	}
}

func TestPathProperties(t *testing.T) {
	g := smallGraph(t)
	p, err := g.ShortestPath("a", "d", PathOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Bottleneck(); got != 100*Mbps {
		t.Fatalf("Bottleneck = %v, want 100Mbps", got)
	}
	if got := p.DeliveryProb(); got != 1.0 {
		t.Fatalf("DeliveryProb = %v, want 1.0 (lossless path)", got)
	}
	var empty Path
	if empty.Bottleneck() != 0 || empty.Nodes() != nil || empty.Delay() != 0 {
		t.Fatal("empty path properties wrong")
	}
}

func TestPathLossAccumulates(t *testing.T) {
	g := New()
	for _, id := range []NodeID{"a", "b", "c"} {
		g.MustAddNode(Node{ID: id})
	}
	g.MustConnect("ab", "a", "b", Transit, Gbps, time.Millisecond, 0, 0.1)
	g.MustConnect("bc", "b", "c", Transit, Gbps, time.Millisecond, 0, 0.1)
	p, err := g.ShortestPath("a", "c", PathOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.9 * 0.9
	if got := p.DeliveryProb(); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("DeliveryProb = %v, want %v", got, want)
	}
	if got := p.Jitter(); got != 0 {
		t.Fatalf("Jitter = %v, want 0", got)
	}
}

func TestBuilderProvider(t *testing.T) {
	b := NewBuilder()
	b.AddProvider(ProviderSpec{Name: "p", Regions: []RegionSpec{
		{Name: "r1", Zones: 2, HostsPerZone: 3},
		{Name: "r2", Zones: 1, HostsPerZone: 2},
	}})
	g := b.Graph()
	if got := len(g.HostsOf("p", "r1")); got != 6 {
		t.Fatalf("r1 hosts = %d, want 6", got)
	}
	if got := len(g.HostsOf("p", "r2")); got != 2 {
		t.Fatalf("r2 hosts = %d, want 2", got)
	}
	// Host in r1 must reach host in r2 over the backbone.
	h1 := HostID("p", "r1", "az1", 1)
	h2 := HostID("p", "r2", "az1", 1)
	p, err := g.ShortestPath(h1, h2, PathOpts{})
	if err != nil {
		t.Fatal(err)
	}
	hasBackbone := false
	for _, l := range p {
		if l.Kind == Backbone {
			hasBackbone = true
		}
		if l.Kind == Transit {
			t.Fatal("intra-provider path crossed the public internet")
		}
	}
	if !hasBackbone {
		t.Fatal("inter-region path used no backbone link")
	}
}

func TestBuildFig1Connectivity(t *testing.T) {
	w := BuildFig1(2)
	g := w.Graph
	// Count the moving parts Figure 1 implies.
	hosts := g.NodesWhere(func(n *Node) bool { return n.Kind == Host })
	if len(hosts) != 2*2*2*2+2 { // 2 clouds x 2 regions x 2 zones x 2 hosts + 2 on-prem
		t.Fatalf("host count = %d", len(hosts))
	}
	// Cross-cloud reachability over the public internet.
	src := HostID(w.CloudA, w.RegionsA[0], "az1", 1)
	dst := HostID(w.CloudB, w.RegionsB[0], "az1", 1)
	p, err := g.ShortestPath(src, dst, PathOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Delay() <= 0 {
		t.Fatal("cross-cloud path has no delay")
	}
	// A dedicated-only inter-cloud path exists through the IXP.
	pd, err := g.ShortestPath(src, dst, PathOpts{Forbid: map[LinkKind]bool{Transit: true}})
	if err != nil {
		t.Fatalf("no dedicated path through IXP: %v", err)
	}
	sawDedicated := 0
	for _, l := range pd {
		if l.Kind == Dedicated {
			sawDedicated++
		}
	}
	if sawDedicated != 2 {
		t.Fatalf("dedicated path crossed %d dedicated links, want 2 (DX + ER via IXP)", sawDedicated)
	}
	// On-prem reachable from both clouds without transit via MPLS.
	onpremHost := NodeID("onprem/hq/host1")
	if _, err := g.ShortestPath(src, onpremHost, PathOpts{Forbid: map[LinkKind]bool{Transit: true}}); err != nil {
		t.Fatalf("no private path cloudA->onprem: %v", err)
	}
}

func TestKindStrings(t *testing.T) {
	if Host.String() != "host" || Dedicated.String() != "dedicated" {
		t.Fatal("kind name tables broken")
	}
}

func TestOneWayDelayAndRTT(t *testing.T) {
	g := New()
	g.MustAddNode(Node{ID: "a"})
	g.MustAddNode(Node{ID: "b"})
	g.MustConnect("ab", "a", "b", Transit, 1e9, 10*time.Millisecond, 5*time.Millisecond, 0)
	p, err := g.ShortestPath("a", "b", PathOpts{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		d := p.OneWayDelay(r)
		if d < 10*time.Millisecond || d >= 15*time.Millisecond {
			t.Fatalf("OneWayDelay = %v outside [10ms,15ms)", d)
		}
		rtt := p.RTT(r)
		if rtt < 20*time.Millisecond || rtt >= 30*time.Millisecond {
			t.Fatalf("RTT = %v outside [20ms,30ms)", rtt)
		}
	}
}

func TestDelivered(t *testing.T) {
	g := New()
	g.MustAddNode(Node{ID: "a"})
	g.MustAddNode(Node{ID: "b"})
	g.MustConnect("ab", "a", "b", Transit, 1e9, time.Millisecond, 0, 0.5)
	p, err := g.ShortestPath("a", "b", PathOpts{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	delivered := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		if p.Delivered(r) {
			delivered++
		}
	}
	frac := float64(delivered) / trials
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("delivery fraction = %v, want ~0.5", frac)
	}
	// A datagram never crosses a failed link.
	if err := g.SetPairUp("ab", false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if p.Delivered(r) {
			t.Fatal("datagram delivered over failed link")
		}
	}
}
