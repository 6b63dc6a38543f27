package qos

import (
	"math"
	"testing"
	"time"

	"declnet/internal/sim"
	"declnet/internal/topo"
)

func TestTokenBucketBasics(t *testing.T) {
	b := NewTokenBucket(1000, 500) // 1000 tokens/s, burst 500
	now := sim.Time(0)
	if !b.Take(now, 500) {
		t.Fatal("full bucket refused its burst")
	}
	if b.Take(now, 1) {
		t.Fatal("empty bucket granted tokens")
	}
	// After 100ms, 100 tokens refill.
	now = 100 * time.Millisecond
	if !b.Take(now, 100) {
		t.Fatal("refilled tokens not granted")
	}
	if b.Take(now, 1) {
		t.Fatal("over-grant after refill")
	}
}

func TestTokenBucketBurstCap(t *testing.T) {
	b := NewTokenBucket(1000, 500)
	b.Take(0, 0)
	if got := b.Available(10 * time.Second); got != 500 {
		t.Fatalf("Available after long idle = %v, want burst cap 500", got)
	}
}

// fakeFlow implements RateSetter for limiter tests.
type fakeFlow struct {
	demand float64
	cap    float64
}

func (f *fakeFlow) SetCap(bps float64) { f.cap = bps }
func (f *fakeFlow) Demand() float64    { return f.demand }

// rate returns what the flow actually sends: min(demand, cap).
func (f *fakeFlow) rate() float64 { return math.Min(f.demand, f.cap) }

func TestEnforcerWaterfill(t *testing.T) {
	e := NewEnforcer("e1")
	small := &fakeFlow{demand: 10e6}
	big := &fakeFlow{demand: 100e6}
	e.Attach(small)
	e.Attach(big)
	e.alloc = 60e6
	e.apply()
	// Max-min: small gets its 10M, big gets the remaining 50M.
	if math.Abs(small.cap-10e6) > 1 {
		t.Fatalf("small cap = %v, want 10M", small.cap)
	}
	if math.Abs(big.cap-50e6) > 1 {
		t.Fatalf("big cap = %v, want 50M", big.cap)
	}
}

func TestDistributedLimiterConvergence(t *testing.T) {
	eng := sim.New(1)
	e1, e2 := NewEnforcer("e1"), NewEnforcer("e2")
	f1 := &fakeFlow{demand: 80e6}
	f2 := &fakeFlow{demand: 80e6}
	e1.Attach(f1)
	e2.Attach(f2)
	d := NewDistributedLimiter(100e6, 10*time.Millisecond, e1, e2)
	tk := eng.EveryDaemon(d.Period, d.Redistribute)
	eng.RunUntil(50 * time.Millisecond)
	tk.Stop()
	// Equal demands, quota 100M: 50M each.
	if math.Abs(f1.rate()-50e6) > 1e3 || math.Abs(f2.rate()-50e6) > 1e3 {
		t.Fatalf("rates = %v, %v; want 50M each", f1.rate(), f2.rate())
	}
	total := f1.rate() + f2.rate()
	if total > 100e6*1.001 {
		t.Fatalf("quota exceeded: %v", total)
	}
	if d.Rounds == 0 {
		t.Fatal("controller never ran")
	}
	if d.EnforcementError() > 0.01 {
		t.Fatalf("enforcement error = %v", d.EnforcementError())
	}
}

func TestDistributedLimiterSkewedDemand(t *testing.T) {
	eng := sim.New(1)
	e1, e2, e3 := NewEnforcer("e1"), NewEnforcer("e2"), NewEnforcer("e3")
	fSmall := &fakeFlow{demand: 10e6}
	fMid := &fakeFlow{demand: 40e6}
	fBig := &fakeFlow{demand: 200e6}
	e1.Attach(fSmall)
	e2.Attach(fMid)
	e3.Attach(fBig)
	d := NewDistributedLimiter(100e6, 10*time.Millisecond, e1, e2, e3)
	tk := eng.EveryDaemon(d.Period, d.Redistribute)
	eng.RunUntil(30 * time.Millisecond)
	tk.Stop()
	// Waterfill: small 10M, mid 40M, big gets remaining 50M.
	if math.Abs(fSmall.rate()-10e6) > 1e3 {
		t.Fatalf("small = %v", fSmall.rate())
	}
	if math.Abs(fMid.rate()-40e6) > 1e3 {
		t.Fatalf("mid = %v", fMid.rate())
	}
	if math.Abs(fBig.rate()-50e6) > 1e3 {
		t.Fatalf("big = %v", fBig.rate())
	}
}

func TestDistributedLimiterUndersubscribed(t *testing.T) {
	eng := sim.New(1)
	e1 := NewEnforcer("e1")
	f1 := &fakeFlow{demand: 30e6}
	e1.Attach(f1)
	d := NewDistributedLimiter(100e6, 10*time.Millisecond, e1)
	tk := eng.EveryDaemon(d.Period, d.Redistribute)
	eng.RunUntil(20 * time.Millisecond)
	tk.Stop()
	if math.Abs(f1.rate()-30e6) > 1e3 {
		t.Fatalf("undersubscribed flow capped to %v, want full demand", f1.rate())
	}
	if d.EnforcementError() > 0.01 {
		t.Fatalf("error = %v", d.EnforcementError())
	}
}

func TestDistributedLimiterChurn(t *testing.T) {
	eng := sim.New(1)
	e1 := NewEnforcer("e1")
	f1 := &fakeFlow{demand: 200e6}
	e1.Attach(f1)
	d := NewDistributedLimiter(100e6, 10*time.Millisecond, e1)
	tk := eng.EveryDaemon(d.Period, d.Redistribute)
	eng.RunUntil(15 * time.Millisecond)
	if math.Abs(f1.rate()-100e6) > 1e3 {
		t.Fatalf("solo flow = %v, want full quota", f1.rate())
	}
	// A second flow arrives; the next round must rebalance toward 50/50.
	f2 := &fakeFlow{demand: 200e6}
	e1.Attach(f2)
	eng.RunUntil(35 * time.Millisecond)
	tk.Stop()
	if math.Abs(f1.rate()-50e6) > 1e3 || math.Abs(f2.rate()-50e6) > 1e3 {
		t.Fatalf("post-churn rates = %v, %v", f1.rate(), f2.rate())
	}
}

func TestSetQuota(t *testing.T) {
	eng := sim.New(1)
	e1 := NewEnforcer("e1")
	f1 := &fakeFlow{demand: 300e6}
	e1.Attach(f1)
	d := NewDistributedLimiter(100e6, 10*time.Millisecond, e1)
	tk := eng.EveryDaemon(d.Period, d.Redistribute)
	eng.RunUntil(15 * time.Millisecond)
	d.SetQuota(200e6)
	eng.RunUntil(35 * time.Millisecond)
	tk.Stop()
	if math.Abs(f1.rate()-200e6) > 1e3 {
		t.Fatalf("rate after quota raise = %v, want 200M", f1.rate())
	}
}

func TestEnforcerDetach(t *testing.T) {
	e := NewEnforcer("e")
	f := &fakeFlow{demand: 10e6}
	e.Attach(f)
	e.Detach(f)
	if e.Demand() != 0 {
		t.Fatalf("Demand after detach = %v", e.Demand())
	}
}

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
