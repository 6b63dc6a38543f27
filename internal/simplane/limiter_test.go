package simplane

import (
	"math"
	"testing"
	"time"

	"declnet/internal/sim"
)

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
