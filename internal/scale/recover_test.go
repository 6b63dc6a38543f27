package scale

import (
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"declnet/internal/addr"
	"declnet/internal/core"
	"declnet/internal/intent"
	"declnet/internal/obs"
	"declnet/internal/permit"
)

// What one restored endpoint may cost — half of the world loaded from
// the snapshot and half replayed from the journal — counting Open,
// building the empty world and RestoreIntent. The figures are the smoke
// tier's (10^4 endpoints) under the race detector, the largest of the
// tiers the test runs: building the world is a fixed cost, which fewer
// endpoints share (the 10^5 tier measures 4.3 allocations and 693
// bytes, the 10^6 tier 3.8 and 637). The journal half decodes binary
// frames with no reflection, keeping one copy of each repeated string;
// both halves hand every endpoint declaring the same list the declared
// state's one set for it, and every endpoint of one (tenant, VM) its one
// placement, each looked up without an allocation once held; and an
// installed endpoint, with its permit set, is the declared entry itself
// — Log.State shares it and restore adopts it.
// Recovery may cost a quarter more before TestRecoveryBudget fails.
const (
	recoverAllocsPerEndpoint = 6.0
	recoverBytesPerEndpoint  = 1272
	recoverBudgetFactor      = 1.25
)

// raceEnabled is set by race_test.go when the race detector is compiled
// in.
var raceEnabled bool

// budgetTier is the tier the budget tests run: E13's default (10^5
// endpoints, 200 tenants), the smoke tier under the race detector, and
// what DECLNET_RECOVER_EIPS / _TENANTS / _REGIONS set when given.
func budgetTier(t *testing.T) Config {
	t.Helper()
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
	return cfg
}

// onboardInHalves onboards w exactly like the drill's phase 1 — grants
// plus a permit list per endpoint, fanned out over workers so the journal
// l sees real concurrent append order — in two halves with a snapshot
// between them, so a recovery folds a snapshot holding half the world
// and a journal tail holding the other half, whatever the scheduler did.
// onboard grants a tenant's endpoints lo..hi-1: singleVerbs or batches.
func onboardInHalves(t *testing.T, cfg Config, w *world, l *intent.Log, onboard func(*world, *tenantState, int, int) error) {
	t.Helper()
	perTenant := cfg.EIPs / cfg.Tenants
	extra := cfg.EIPs % cfg.Tenants
	for half := 0; half < 2; half++ {
		err := forEachTenant(cfg, w.tenants, func(_ int, ts *tenantState) error {
			n := perTenant
			if tenantIndex(ts.name) < extra {
				n++
			}
			if half == 0 {
				return onboard(w, ts, 0, n/2)
			}
			return onboard(w, ts, n/2, n)
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
}

// singleVerbs grants each endpoint and sets its permit list — its
// tenant's first EIP's /16 — one verb at a time, as the drill does.
func singleVerbs(w *world, ts *tenantState, lo, hi int) error {
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
}

// batchEndpoints is how many endpoints one batch onboards: a grant and a
// set_permit each, 128 ops, the size of a set-up batch.
const batchEndpoints = 64

// batches onboards the same endpoints with the same list — the tenant's
// region block — through ApplyBatch: each frame grants batchEndpoints
// endpoints and declares the list on each of them, naming the grant by
// back-reference.
func batches(w *world, ts *tenantState, lo, hi int) error {
	block, _ := w.prov.RegionBlock(w.regions[ts.region])
	list := []permit.Entry{block}
	for i := lo; i < hi; i += batchEndpoints {
		var ops []core.BatchOp
		for j := i; j < min(i+batchEndpoints, hi); j++ {
			ops = append(ops, core.BatchOp{Op: intent.OpRequestEIP, VM: ts.hosts[j%len(ts.hosts)]},
				core.BatchOp{Op: intent.OpSetPermit, Target: "$" + strconv.Itoa(len(ops)), Entries: list})
		}
		res, err := w.cloud.ApplyBatch(ts.name, ops)
		if err != nil {
			return err
		}
		for _, r := range res {
			if r.Addr != 0 {
				ts.eips = append(ts.eips, r.Addr)
			}
		}
	}
	return nil
}

// TestRecoveryBudget pins the cost of restart recovery at the E13
// default tier (10^5 endpoints, 200 tenants): onboard a full drill world
// with the durable intent store attached, compact at the halfway mark so
// recovery exercises snapshot load AND journal-tail replay, then run
// Open -> buildWorld -> RestoreIntent once and check the recovered world
// against the crashed one's digest. The budget is counted in allocations
// and bytes per restored endpoint, which do not depend on the host; the
// wall clock is logged, not asserted. DECLNET_RECOVER_EIPS / _TENANTS /
// _REGIONS raise the tier toward 10^6 (`make recover-scale` does, and CI
// runs it), so the per-endpoint budget holds at both tiers. Under the
// race detector the default tier is the smoke one: the budget is per
// endpoint and the same there, and the 10^5 tier would hold a core for
// half a minute beside the wall-clock tests of packages `go test ./...`
// runs concurrently.
func TestRecoveryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("onboards and recovers 10^5 endpoints")
	}
	cfg := budgetTier(t)
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
	onboardInHalves(t, cfg, w, l, singleVerbs)
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

// liveBytesPerEndpoint is the live heap one endpoint may cost in the
// configuration declnetd runs: the intent store attached and compacted,
// the decision tracer on, onboarded one verb at a time. An endpoint is
// one declared record of three words, held by the store's declared state
// alone — core keeps no endpoint table — and carrying references to its
// placement and its permit set, which the declared state holds once per
// distinct value, however the records that share it were declared (one
// verb at a time or in batches), and which the permit engine enforces as
// is; a slot on an address-indexed page of the declared state's endpoint
// table and of the engine's (addr.Table); and a share of its tenant's
// decision ring. What is fixed (the rings, a table's blocks) spreads
// thinner as a region's block fills, so an endpoint costs less at 10^6
// than at 10^5 (~69 and ~88 B measured); the budget is the larger plus a
// quarter.
const liveBytesPerEndpoint = 110

// TestLiveBudget pins what the deployed control plane holds per endpoint:
// onboard the budget tier the way TestRecoveryBudget does, with the intent
// store and obs.NewTracer(0) attached as declnetd attaches them, compact,
// collect, and count the heap in use against what it was before the
// first grant. The same onboarding with the store alone, and with the
// store and tracer but in 128-op batches, are logged beside it. Bytes per
// endpoint do not depend on the host; `make recover-scale` runs it at
// 10^6. Under the race detector its allocations are not the daemon's, so
// it does not run there.
func TestLiveBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("onboards 10^5 endpoints three times")
	}
	if raceEnabled {
		t.Skip("the race detector's allocations are not the daemon's")
	}
	cfg := budgetTier(t)
	live := func(tr *obs.Tracer, onboard func(*world, *tenantState, int, int) error) float64 {
		l, err := intent.Open(t.TempDir(), intent.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		w, err := buildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.cloud.EnableIntent(l)
		if tr != nil {
			w.cloud.EnableObservability(tr, nil)
		}
		heap0 := heapInUse()
		onboardInHalves(t, cfg, w, l, onboard)
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		heap1 := heapInUse()
		runtime.KeepAlive(w)
		return (float64(heap1) - float64(heap0)) / float64(cfg.EIPs)
	}
	storeOnly := live(nil, singleVerbs)
	deployed := live(obs.NewTracer(0), singleVerbs)
	batched := live(obs.NewTracer(0), batches)
	t.Logf("%d endpoints, %d tenants: %.0f live bytes per endpoint with the store and the tracer, %.0f with the store alone, %.0f with both when onboarded in batches",
		cfg.EIPs, cfg.Tenants, deployed, storeOnly, batched)
	if deployed > liveBytesPerEndpoint {
		t.Errorf("the deployed control plane holds %.0f bytes per endpoint, budget %d", deployed, liveBytesPerEndpoint)
	}
}
