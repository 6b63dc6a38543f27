package scale

import (
	"math/rand"
	"testing"

	"declnet/internal/addr"
	"declnet/internal/core"
	"declnet/internal/intent"
	"declnet/internal/permit"
)

// reconcileWorld onboards the E13 default tier (10^5 endpoints, one
// permit list each, a QoS quota per tenant) with the durable store
// attached, then enables the reconciler at the given anti-entropy K.
func reconcileWorld(b *testing.B, cfg Config, k int) (*world, *core.Reconciler) {
	b.Helper()
	dir := b.TempDir()
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		b.Fatal(err)
	}
	w, err := buildWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	w.cloud.EnableIntent(l)
	perTenant := cfg.EIPs / cfg.Tenants
	extra := cfg.EIPs % cfg.Tenants
	err = forEachTenant(cfg, w.tenants, func(_ int, ts *tenantState) error {
		n := perTenant
		if tenantIndex(ts.name) < extra {
			n++
		}
		var regionEntry []permit.Entry
		for i := 0; i < n; i++ {
			eip, err := w.prov.RequestEIP(ts.name, ts.hosts[i%len(ts.hosts)])
			if err != nil {
				return err
			}
			if regionEntry == nil {
				regionEntry = []permit.Entry{addr.NewPrefix(addr.IP(eip), 16)}
			}
			if err := w.prov.SetPermitList(ts.name, eip, regionEntry); err != nil {
				return err
			}
			ts.eips = append(ts.eips, eip)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, ts := range w.tenants {
		if err := w.prov.SetQoS(ts.name, regionName(ts.region), 1e9); err != nil {
			b.Fatal(err)
		}
	}
	r, err := w.cloud.EnableReconciler(core.ReconcilerConfig{AntiEntropyK: k})
	if err != nil {
		b.Fatal(err)
	}
	// Drain the onboarding dirt and cover every anti-entropy phase so
	// the measured sweeps start from a converged world.
	for i := 0; i < k+1; i++ {
		r.RunSweep()
	}
	return w, r
}

// reconcileK is the incr arms' rotation width. 1/16 of the declared
// world per sweep keeps the steady-state cost an order of magnitude
// under the K=1 whole-world walk while bounding undirtied-drift
// detection to 16 sweeps.
const reconcileK = 16

// BenchmarkReconcileSweep measures one reconciliation sweep over the
// 10^5-endpoint tier three ways: K=1, where the rotation slice is the
// whole world ("full"), K=16 on a converged world ("incr"), and K=16
// under a chaos drift storm (500 wiped permit lists per cycle, repaired
// within one full rotation). benchjson derives
// reconcile_incr_full_ratio from the first two; it is reported, not
// gated — both arms run the same code, so on a shared host the ratio
// moves with memory locality, and the 1/K relation itself is asserted as
// a count in internal/core (TestSteadyStateSweepIsOneKthOfTheWorld).
func BenchmarkReconcileSweep(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Probes, cfg.ChurnEvents, cfg.PermitSamples = 0, 0, 0
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	steady := func(k int) func(*testing.B) {
		return func(b *testing.B) {
			_, r := reconcileWorld(b, cfg, k)
			b.ReportAllocs()
			b.ResetTimer()
			var last core.SweepResult
			for i := 0; i < b.N; i++ {
				last = r.RunSweep()
			}
			b.StopTimer()
			if last.Repaired != 0 || last.DriftPermits != 0 {
				b.Fatalf("steady-state sweep found work: %+v", last)
			}
			b.ReportMetric(float64(last.Scanned), "scanned/sweep")
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "sweep_ms")
		}
	}
	b.Run("full", steady(1))
	b.Run("incr", steady(reconcileK))
	b.Run("incr_drift_storm", func(b *testing.B) {
		const wipes = 500
		w, r := reconcileWorld(b, cfg, reconcileK)
		var all []core.EIP
		for _, ts := range w.tenants {
			all = append(all, ts.eips...)
		}
		rng := rand.New(rand.NewSource(3))
		b.ReportAllocs()
		b.ResetTimer()
		sweeps := 0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			wiped := 0
			for _, j := range rng.Perm(len(all))[:wipes] {
				if w.cloud.DriftWipePermit(addr.IP(all[j])) {
					wiped++
				}
			}
			b.StartTimer()
			// One full rotation detects everything the storm wiped; the
			// cycle is the tenant-visible convergence window.
			repaired := 0
			cycle := 0
			for ; cycle < 2*reconcileK && repaired < wiped; cycle++ {
				repaired += r.RunSweep().Repaired
			}
			sweeps += cycle
			if repaired != wiped {
				b.Fatalf("storm cycle repaired %d of %d wiped lists in %d sweeps", repaired, wiped, cycle)
			}
		}
		b.StopTimer()
		b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "storm_cycle_ms")
		b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/cycle")
	})
}
