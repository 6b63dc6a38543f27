package netsim

import (
	"math"
	"testing"
	"time"

	"declnet/internal/sim"
	"declnet/internal/topo"
)

// line builds a graph a--b--c with given capacities (bits/s) on each hop.
func line(t *testing.T, capAB, capBC float64) *topo.Graph {
	t.Helper()
	g := topo.New()
	for _, id := range []topo.NodeID{"a", "b", "c"} {
		g.MustAddNode(topo.Node{ID: id})
	}
	g.MustConnect("ab", "a", "b", topo.Backbone, capAB, time.Millisecond, 0, 0)
	g.MustConnect("bc", "b", "c", topo.Backbone, capBC, time.Millisecond, 0, 0)
	return g
}

func path(t *testing.T, g *topo.Graph, src, dst topo.NodeID) topo.Path {
	t.Helper()
	p, err := g.ShortestPath(src, dst, topo.PathOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSingleFlowGetsBottleneck(t *testing.T) {
	g := line(t, 100e6, 50e6)
	eng := sim.New(1)
	n := New(g, eng)
	var fct time.Duration
	// 50 Mbit over a 50 Mbps bottleneck = 1 second + 2ms propagation.
	_, err := n.StartFlow(&Flow{
		Path:   path(t, g, "a", "c"),
		Size:   50e6 / 8,
		OnDone: func(d time.Duration) { fct = d },
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	want := time.Second + 2*time.Millisecond
	if diff := fct - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("FCT = %v, want ~%v", fct, want)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	g := line(t, 100e6, 100e6)
	eng := sim.New(1)
	n := New(g, eng)
	f1, _ := n.StartFlow(&Flow{Path: path(t, g, "a", "c"), Size: -1})
	f2, _ := n.StartFlow(&Flow{Path: path(t, g, "a", "c"), Size: -1})
	if math.Abs(f1.Rate()-50e6) > 1e3 || math.Abs(f2.Rate()-50e6) > 1e3 {
		t.Fatalf("rates = %v, %v; want 50Mbps each", f1.Rate(), f2.Rate())
	}
	n.Stop(f2)
	if math.Abs(f1.Rate()-100e6) > 1e3 {
		t.Fatalf("rate after departure = %v, want 100Mbps", f1.Rate())
	}
}

func TestWeightedShares(t *testing.T) {
	g := line(t, 90e6, 90e6)
	eng := sim.New(1)
	n := New(g, eng)
	f1, _ := n.StartFlow(&Flow{Path: path(t, g, "a", "c"), Size: -1, Weight: 2})
	f2, _ := n.StartFlow(&Flow{Path: path(t, g, "a", "c"), Size: -1, Weight: 1})
	if math.Abs(f1.Rate()-60e6) > 1e3 || math.Abs(f2.Rate()-30e6) > 1e3 {
		t.Fatalf("weighted rates = %v, %v; want 60/30 Mbps", f1.Rate(), f2.Rate())
	}
}

func TestMaxRateCapRedistributes(t *testing.T) {
	g := line(t, 100e6, 100e6)
	eng := sim.New(1)
	n := New(g, eng)
	f1, _ := n.StartFlow(&Flow{Path: path(t, g, "a", "c"), Size: -1, MaxRate: 10e6})
	f2, _ := n.StartFlow(&Flow{Path: path(t, g, "a", "c"), Size: -1})
	if math.Abs(f1.Rate()-10e6) > 1e3 {
		t.Fatalf("capped flow rate = %v, want 10Mbps", f1.Rate())
	}
	if math.Abs(f2.Rate()-90e6) > 1e3 {
		t.Fatalf("uncapped flow rate = %v, want 90Mbps (max-min redistribution)", f2.Rate())
	}
	n.SetMaxRate(f1, 0)
	if math.Abs(f1.Rate()-50e6) > 1e3 || math.Abs(f2.Rate()-50e6) > 1e3 {
		t.Fatalf("rates after uncapping = %v, %v", f1.Rate(), f2.Rate())
	}
}

func TestDistinctBottlenecks(t *testing.T) {
	// Classic max-min example: flows A (a->c) and B (b->c) share link bc;
	// flow C (a->b) uses only ab. With ab=100, bc=60:
	// A and B split bc 30/30; C gets ab's residual 70.
	g := line(t, 100e6, 60e6)
	eng := sim.New(1)
	n := New(g, eng)
	fA, _ := n.StartFlow(&Flow{Path: path(t, g, "a", "c"), Size: -1})
	fB, _ := n.StartFlow(&Flow{Path: path(t, g, "b", "c"), Size: -1})
	fC, _ := n.StartFlow(&Flow{Path: path(t, g, "a", "b"), Size: -1})
	if math.Abs(fA.Rate()-30e6) > 1e3 || math.Abs(fB.Rate()-30e6) > 1e3 {
		t.Fatalf("bottleneck shares = %v, %v; want 30Mbps each", fA.Rate(), fB.Rate())
	}
	if math.Abs(fC.Rate()-70e6) > 1e3 {
		t.Fatalf("residual share = %v, want 70Mbps", fC.Rate())
	}
}

func TestSequentialCompletions(t *testing.T) {
	// Two equal flows start together; after the first half completes the
	// survivor speeds up. 10Mbit each over shared 10Mbps: both at 5Mbps;
	// f1 is half the size so it finishes at t=1s, then f2 runs at 10Mbps
	// finishing its remaining 5Mbit at t=1.5s.
	g := line(t, 10e6, 10e6)
	eng := sim.New(1)
	n := New(g, eng)
	var fct1, fct2 time.Duration
	n.StartFlow(&Flow{Path: path(t, g, "a", "c"), Size: 5e6 / 8,
		OnDone: func(d time.Duration) { fct1 = d }})
	n.StartFlow(&Flow{Path: path(t, g, "a", "c"), Size: 10e6 / 8,
		OnDone: func(d time.Duration) { fct2 = d }})
	eng.Run()
	prop := 2 * time.Millisecond
	if diff := fct1 - (time.Second + prop); abs(diff) > 5*time.Millisecond {
		t.Fatalf("fct1 = %v, want ~1.002s", fct1)
	}
	if diff := fct2 - (1500*time.Millisecond + prop); abs(diff) > 5*time.Millisecond {
		t.Fatalf("fct2 = %v, want ~1.502s", fct2)
	}
}

func abs(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func TestStopPersistentFlow(t *testing.T) {
	g := line(t, 10e6, 10e6)
	eng := sim.New(1)
	n := New(g, eng)
	f, _ := n.StartFlow(&Flow{Path: path(t, g, "a", "c"), Size: -1})
	eng.RunUntil(time.Second)
	n.Stop(f)
	if f.Done() {
		t.Fatal("stopped flow reported done")
	}
	// ~10Mbit in 1s at 10Mbps.
	if got := f.SentBytes(); math.Abs(got-10e6/8) > 1e3 {
		t.Fatalf("SentBytes = %v, want ~1.25MB", got)
	}
	if n.Active() != 0 {
		t.Fatalf("Active = %d after stop", n.Active())
	}
	n.Stop(f) // double stop is a no-op
}

func TestFlowValidation(t *testing.T) {
	g := line(t, 10e6, 10e6)
	n := New(g, sim.New(1))
	if _, err := n.StartFlow(&Flow{Size: 1}); err == nil {
		t.Fatal("empty path accepted")
	}
	p := path(t, g, "a", "c")
	if _, err := n.StartFlow(&Flow{ID: "x", Path: p, Size: -1}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.StartFlow(&Flow{ID: "x", Path: p, Size: -1}); err == nil {
		t.Fatal("duplicate flow ID accepted")
	}
}

func TestFairnessInvariants(t *testing.T) {
	g := topo.New()
	ids := []topo.NodeID{"a", "b", "c", "d", "e"}
	for _, id := range ids {
		g.MustAddNode(topo.Node{ID: id})
	}
	caps := []float64{80e6, 40e6, 120e6, 60e6}
	for i := 0; i+1 < len(ids); i++ {
		g.MustConnect(string(ids[i])+string(ids[i+1]), ids[i], ids[i+1],
			topo.Backbone, caps[i], time.Millisecond, 0, 0)
	}
	eng := sim.New(3)
	n := New(g, eng)
	var flows []*Flow
	pairs := [][2]topo.NodeID{{"a", "e"}, {"b", "d"}, {"a", "c"}, {"c", "e"}, {"b", "e"}, {"a", "b"}}
	for _, pr := range pairs {
		f, err := n.StartFlow(&Flow{Path: path(t, g, pr[0], pr[1]), Size: -1})
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
	}
	// Link load <= capacity.
	load := map[*topo.Link]float64{}
	for _, f := range flows {
		for _, l := range f.Path {
			load[l] += f.Rate()
		}
	}
	for l, ld := range load {
		if ld > l.Capacity*(1+1e-9) {
			t.Fatalf("link %s oversubscribed: %v > %v", l.ID, ld, l.Capacity)
		}
	}
	// Max-min floor: every flow gets at least min over its links of
	// capacity / (flows on that link).
	cnt := map[*topo.Link]int{}
	for _, f := range flows {
		for _, l := range f.Path {
			cnt[l]++
		}
	}
	for i, f := range flows {
		floor := math.Inf(1)
		for _, l := range f.Path {
			if s := l.Capacity / float64(cnt[l]); s < floor {
				floor = s
			}
		}
		if f.Rate() < floor*(1-1e-9) {
			t.Fatalf("flow %d rate %v below max-min floor %v", i, f.Rate(), floor)
		}
	}
}

func TestLinkFailureStallsAndResumes(t *testing.T) {
	g := line(t, 10e6, 10e6)
	eng := sim.New(1)
	n := New(g, eng)
	var fct time.Duration
	// 20 Mbit at 10 Mbps = 2s of service time; a 1s outage in the middle
	// stretches completion to ~3s.
	n.StartFlow(&Flow{Path: path(t, g, "a", "c"), Size: 20e6 / 8,
		OnDone: func(d time.Duration) { fct = d }})
	eng.After(time.Second, func() {
		if err := n.FailLink("bc"); err != nil {
			t.Error(err)
		}
	})
	eng.After(2*time.Second, func() {
		if err := n.RestoreLink("bc"); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	want := 3 * time.Second
	if diff := fct - want; abs(diff) > 50*time.Millisecond {
		t.Fatalf("FCT with outage = %v, want ~%v", fct, want)
	}
}

func TestFailedLinkFreesCapacity(t *testing.T) {
	// Flows a->c and b->c share bc; failing ab stalls the first and the
	// survivor picks up the freed share.
	g := line(t, 10e6, 10e6)
	eng := sim.New(1)
	n := New(g, eng)
	f1, _ := n.StartFlow(&Flow{Path: path(t, g, "a", "c"), Size: -1})
	f2, _ := n.StartFlow(&Flow{Path: path(t, g, "b", "c"), Size: -1})
	if math.Abs(f1.Rate()-5e6) > 1e3 || math.Abs(f2.Rate()-5e6) > 1e3 {
		t.Fatalf("pre-failure rates = %v, %v", f1.Rate(), f2.Rate())
	}
	if err := n.FailLink("ab"); err != nil {
		t.Fatal(err)
	}
	if f1.Rate() != 0 {
		t.Fatalf("stalled flow rate = %v, want 0", f1.Rate())
	}
	if math.Abs(f2.Rate()-10e6) > 1e3 {
		t.Fatalf("survivor rate = %v, want 10Mbps", f2.Rate())
	}
	n.RestoreLink("ab")
	if math.Abs(f1.Rate()-5e6) > 1e3 {
		t.Fatalf("restored flow rate = %v, want 5Mbps", f1.Rate())
	}
}

func TestFailLinkValidationAndRouting(t *testing.T) {
	g := line(t, 10e6, 10e6)
	eng := sim.New(1)
	n := New(g, eng)
	if err := n.FailLink("nope"); err == nil {
		t.Fatal("failing unknown link succeeded")
	}
	if err := n.FailLink("bc"); err != nil {
		t.Fatal(err)
	}
	// Path search must route around (here: no alternative, so error).
	if _, err := g.ShortestPath("a", "c", topo.PathOpts{}); err == nil {
		t.Fatal("path found across failed link")
	}
	// Probes on a failed path never deliver.
	p := path(t, g, "a", "b")
	n.FailLink("ab")
	if p.Delivered(eng.Rand()) {
		t.Fatal("datagram delivered over failed link")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		g := line(t, 100e6, 60e6)
		eng := sim.New(99)
		n := New(g, eng)
		var fcts []float64
		for i := 0; i < 20; i++ {
			sz := float64(1+eng.Rand().Intn(10)) * 1e6
			eng.After(sim.Time(i)*100*time.Millisecond, func() {
				n.StartFlow(&Flow{Path: path(t, g, "a", "c"), Size: sz,
					OnDone: func(d time.Duration) { fcts = append(fcts, d.Seconds()) }})
			})
		}
		eng.Run()
		return fcts
	}
	a, b := run(), run()
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("completions = %d, %d; want 20 each", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at completion %d: %v vs %v", i, a[i], b[i])
		}
	}
}
