package scale

import (
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/permit"
)

// What one restored endpoint cost when the budget was set: 5 675 272
// allocations and 334.8 MB for the 10^5-endpoint tier. Recovery may cost
// a quarter more before TestRecoveryBudget fails.
const (
	recoverAllocsPerEndpoint = 57
	recoverBytesPerEndpoint  = 3350
	recoverBudgetFactor      = 1.25
)

// raceEnabled is set by race_test.go when the race detector is compiled
// in.
var raceEnabled bool

// TestRecoveryBudget pins the cost of restart recovery at the E13
// default tier (10^5 endpoints, 200 tenants): onboard a full drill world
// with the durable intent store attached, compact mid-history so
// recovery exercises snapshot load AND journal-tail replay, then run
// Open -> buildWorld -> RestoreIntent once and check the recovered world
// against the crashed one's digest. The budget is counted in allocations
// and bytes per restored endpoint, which do not depend on the host; the
// wall clock is logged, not asserted. DECLNET_RECOVER_EIPS / _TENANTS /
// _REGIONS raise the tier toward 10^6 (`make recover-scale` does);
// recovery decodes the journal and restores surfaces across
// GOMAXPROCS-wide worker pools, so the big tier is where the parallel
// path shows. Under the race detector the default tier is the smoke one:
// the budget is per endpoint and the same there, the parallel paths are
// the same code, and the 10^5 tier would hold every core for half a
// minute beside the wall-clock tests of packages `go test ./...` runs
// concurrently.
func TestRecoveryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("onboards and recovers 10^5 endpoints")
	}
	cfg := DefaultConfig()
	if raceEnabled {
		cfg = SmokeConfig()
	}
	for _, ov := range []struct {
		env string
		dst *int
	}{
		{"DECLNET_RECOVER_EIPS", &cfg.EIPs},
		{"DECLNET_RECOVER_TENANTS", &cfg.Tenants},
		{"DECLNET_RECOVER_REGIONS", &cfg.Regions},
	} {
		if v := os.Getenv(ov.env); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s: %v", ov.env, err)
			}
			*ov.dst = n
		}
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := buildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.cloud.EnableIntent(l)

	// Onboard exactly like the drill's phase 1: grants plus a permit
	// list per endpoint, fanned out over workers so the journal sees
	// real concurrent append order.
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
			// Snapshot halfway through: recovery must fold snapshot and
			// the journal tail written after it.
			if i == n/2 && tenantIndex(ts.name) == 0 {
				if err := l.Compact(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A QoS tail after the snapshot point.
	for _, ts := range w.tenants {
		if err := w.prov.SetQoS(ts.name, regionName(ts.region), 1e9); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.AppendErrors != 0 {
		t.Fatalf("onboard journaling hit append errors: %+v", st)
	}
	wantDigest := w.cloud.StateDigest()
	// Crash: the live Log is abandoned un-Closed.

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	rl, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := buildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovered.cloud.RestoreIntent(rl.State()); err != nil {
		t.Fatal(err)
	}
	rl.Close()
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)

	if got := recovered.cloud.StateDigest(); got != wantDigest {
		t.Fatalf("recovered digest differs from the crashed world\n got %s\nwant %s", got, wantDigest)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(cfg.EIPs)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.EIPs)
	t.Logf("recovered %d endpoints in %.2fs: %.1f allocs and %.0f bytes per endpoint",
		cfg.EIPs, wall.Seconds(), allocs, bytes)
	if limit := recoverBudgetFactor * recoverAllocsPerEndpoint; allocs > limit {
		t.Errorf("recovery took %.1f allocs per endpoint, budget %.1f", allocs, limit)
	}
	if limit := recoverBudgetFactor * recoverBytesPerEndpoint; bytes > limit {
		t.Errorf("recovery allocated %.0f bytes per endpoint, budget %.0f", bytes, limit)
	}
}
