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

// What one restored endpoint costs at the 10^5-endpoint tier, half of it
// loaded from the snapshot and half replayed from the journal: 800 000
// allocations and 130.1 MB. The journal half decodes binary frames with
// no reflection, keeping one copy of each repeated string: 13.1
// allocations and 559 bytes per endpoint fewer than the JSON frames'
// decoder (21.1 and 1 860). The snapshot half is read without a JSON
// token per key, and every endpoint declaring the same list shares one
// decoded slice. An installed permit list is the declared list itself —
// Log.State shares it and restore adopts it, so neither copies it.
// Recovery may cost a quarter more before TestRecoveryBudget fails.
const (
	recoverAllocsPerEndpoint = 8.0
	recoverBytesPerEndpoint  = 1301
	recoverBudgetFactor      = 1.25
)

// raceEnabled is set by race_test.go when the race detector is compiled
// in.
var raceEnabled bool

// TestRecoveryBudget pins the cost of restart recovery at the E13
// default tier (10^5 endpoints, 200 tenants): onboard a full drill world
// with the durable intent store attached, compact at the halfway mark so
// recovery exercises snapshot load AND journal-tail replay, then run
// Open -> buildWorld -> RestoreIntent once and check the recovered world
// against the crashed one's digest. The budget is counted in allocations
// and bytes per restored endpoint, which do not depend on the host; the
// wall clock is logged, not asserted. DECLNET_RECOVER_EIPS / _TENANTS /
// _REGIONS raise the tier toward 10^6 (`make recover-scale` does);
// recovery restores surfaces across GOMAXPROCS-wide worker pools, so the
// big tier is where the parallel path shows. Under the race detector the default tier is the smoke one:
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
	// real concurrent append order — in two halves with a snapshot
	// between them, so recovery folds a snapshot holding half the world
	// and a journal tail holding the other half, whatever the scheduler
	// did.
	perTenant := cfg.EIPs / cfg.Tenants
	extra := cfg.EIPs % cfg.Tenants
	for half := 0; half < 2; half++ {
		err = forEachTenant(cfg, w.tenants, func(_ int, ts *tenantState) error {
			n := perTenant
			if tenantIndex(ts.name) < extra {
				n++
			}
			lo, hi := 0, n/2
			if half == 1 {
				lo, hi = n/2, n
			}
			for i := lo; i < hi; i++ {
				eip, err := w.cloud.Tenant(ts.name).RequestEIP(ts.hosts[i%len(ts.hosts)])
				if err != nil {
					return err
				}
				ts.eips = append(ts.eips, eip)
				regionEntry := []permit.Entry{addr.NewPrefix(addr.IP(ts.eips[0]), 16)}
				if err := w.cloud.Tenant(ts.name).SetPermitList(eip, regionEntry); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if half == 0 {
			if err := l.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A QoS tail after the snapshot point.
	for _, ts := range w.tenants {
		if err := w.cloud.Tenant(ts.name).SetQoS(w.prov.Name, regionName(ts.region), 1e9); err != nil {
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
