package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/permit"
	"declnet/internal/topo"
)

// incrWorld is one subject world of the parity property test.
type incrWorld struct {
	c      *Cloud
	w      *topo.Fig1World
	pa, pb *Provider
	l      *intent.Log
	rIncr  *Reconciler // K=incrK sweep under test
	rFull  *Reconciler // K=1 oracle on the same world: every sweep walks everything
	eip1   addr.IP
	eip2   addr.IP
	dst    addr.IP
	sip    addr.IP
}

const incrK = 3

func (iw *incrWorld) buildReconcilers(t *testing.T) {
	t.Helper()
	var err error
	if iw.rIncr, err = iw.c.EnableReconciler(ReconcilerConfig{AntiEntropyK: incrK}); err != nil {
		t.Fatal(err)
	}
	// A cloud holds one reconciler; the oracle is built directly so the
	// same world can be swept both ways.
	iw.rFull = &Reconciler{cloud: iw.c, cfg: ReconcilerConfig{AntiEntropyK: 1}, budget: repairBudget}
}

// TestIncrementalSweepParity is the property test: under randomized
// journaled mutation, chaos-hook drift, and crash recovery, K+1 sweeps
// at K=incrK must leave nothing for a K=1 whole-world sweep to find.
func TestIncrementalSweepParity(t *testing.T) {
	dir := t.TempDir()
	iw := &incrWorld{}
	var err error
	iw.c, iw.w, iw.pa, iw.pb, _ = fig1Cloud(t)
	if iw.l, err = intent.Open(dir, intent.Options{}); err != nil {
		t.Fatal(err)
	}
	iw.c.EnableIntent(iw.l)
	iw.eip1, iw.eip2, iw.dst, iw.sip = populate(t, iw.c, iw.w, iw.pa, iw.pb)
	iw.buildReconcilers(t)

	rng := rand.New(rand.NewSource(11))
	const rounds = 24
	for round := 0; round < rounds; round++ {
		// Journaled mutations: converged when the verb returns, so they
		// leave the sweeps nothing to find.
		for n := rng.Intn(3); n >= 0; n-- {
			switch rng.Intn(4) {
			case 0:
				p := pfx(fmt.Sprintf("10.%d.0.0/16", rng.Intn(40)))
				if err := iw.c.Tenant("acme").Permit(iw.eip1, p); err != nil {
					t.Fatal(err)
				}
			case 1:
				entries := []addr.Prefix{addr.NewPrefix(iw.eip1, 32)}
				if rng.Intn(2) == 0 {
					entries = append(entries, pfx(fmt.Sprintf("172.16.%d.0/24", rng.Intn(40))))
				}
				if err := iw.c.Tenant("acme").SetPermitList(iw.dst, entries); err != nil {
					t.Fatal(err)
				}
			case 2:
				if err := iw.c.Tenant("acme").SetQoS(iw.pa.Name, iw.w.RegionsA[0], float64(1+rng.Intn(9))*1e8); err != nil {
					t.Fatal(err)
				}
			case 3:
				if err := iw.c.Tenant("acme").Unbind(iw.eip2, iw.sip); err == nil {
					if err := iw.c.Tenant("acme").Bind(iw.eip2, iw.sip, 1+rng.Intn(3)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		// Chaos drift: marks nothing — only the anti-entropy rotation
		// can find it.
		switch rng.Intn(4) {
		case 0:
			iw.c.DriftWipePermit(iw.dst)
		case 1:
			iw.c.DriftWipePermit(iw.sip)
		case 2:
			iw.c.DriftUnbind(iw.sip, iw.eip1)
		case 3:
			iw.c.DriftZeroQuota(iw.pa.Name, "acme", iw.w.RegionsA[0])
		}

		// Crash every 4th round mid-divergence: abandon the log
		// un-Closed, recover a fresh world.
		if round%4 == 3 {
			l2, err := intent.Open(dir, intent.Options{})
			if err != nil {
				t.Fatal(err)
			}
			c2, w2, pa2, pb2, _ := fig1Cloud(t)
			if err := c2.RestoreIntent(l2.State()); err != nil {
				t.Fatal(err)
			}
			c2.EnableIntent(l2)
			iw.c, iw.w, iw.pa, iw.pb, iw.l = c2, w2, pa2, pb2, l2
			iw.buildReconcilers(t)
		}

		// K sweeps cover every anti-entropy phase; +1 for the repair
		// confirm. After that a K=1 walk must find a converged world.
		for i := 0; i < incrK+1; i++ {
			iw.rIncr.RunSweep()
		}
		if res := iw.rFull.RunSweep(); sweepWork(res) != (SweepResult{}) {
			t.Fatalf("round %d: K=1 sweep found work after K=%d convergence: %+v", round, incrK, res)
		}
	}
}

// TestChaosDriftDetectedWithinK pins the anti-entropy detection bound:
// drift injected behind the recorder's back — no journal record, no
// mark — is found and repaired within K incremental sweeps.
func TestChaosDriftDetectedWithinK(t *testing.T) {
	dir := t.TempDir()
	c, w, pa, pb, _ := fig1Cloud(t)
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c.EnableIntent(l)
	eip1, _, dst, _ := populate(t, c, w, pa, pb)
	const k = 4
	r, err := c.EnableReconciler(ReconcilerConfig{AntiEntropyK: k})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k+1; i++ {
		r.RunSweep() // converge
	}
	if !c.Admitted(eip1, dst) {
		t.Fatal("world not admitting before drift injection")
	}
	if !c.DriftWipePermit(dst) {
		t.Fatal("DriftWipePermit failed")
	}
	if c.Admitted(eip1, dst) {
		t.Fatal("drift injection did not break admission")
	}
	sweeps, repaired, dirtyHits, aeScanned := 0, 0, 0, 0
	for ; sweeps < k && repaired == 0; sweeps++ {
		res := r.RunSweep()
		repaired += res.Repaired
		dirtyHits += res.DirtyHits
		aeScanned += res.AntiEntropyScanned
	}
	if repaired == 0 {
		t.Fatalf("chaos drift not repaired within K=%d sweeps", k)
	}
	if !c.Admitted(eip1, dst) {
		t.Error("repair did not restore admission")
	}
	// The detection must have come from the rotation, not a dirty mark:
	// nothing journaled between injection and repair.
	if dirtyHits != 0 {
		t.Errorf("chaos-only drift produced %d dirty hits, want 0", dirtyHits)
	}
	if aeScanned == 0 {
		t.Error("no anti-entropy scanning during detection window")
	}
	t.Logf("chaos drift repaired after %d/%d sweeps, %d anti-entropy checks", sweeps, k, aeScanned)
}

// landDeferredPermit has the fault monitor mark target the one way it
// can: a set_permit deferred at its failed enforcement point, the point
// healed, and the retry advanced until the update lands.
func landDeferredPermit(t *testing.T, c *Cloud, target addr.IP, node topo.NodeID, entries ...addr.Prefix) {
	t.Helper()
	m := c.Faults()
	if err := simOf(c).Inj.FailNode(node); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").SetPermitList(target, entries); err != nil {
		t.Fatal(err)
	}
	if _, pending := m.PendingPermit(target); !pending {
		t.Fatalf("set_permit on %s did not defer", target)
	}
	if err := simOf(c).Inj.RestoreNode(node); err != nil {
		t.Fatal(err)
	}
	simOf(c).Eng.RunUntil(simOf(c).Eng.Now() + permitRetryInterval)
	if _, pending := m.PendingPermit(target); pending {
		t.Fatalf("deferred set_permit on %s did not land", target)
	}
}

// TestSweepVisitsEachTargetOnce pins the once-per-sweep rule: a target
// that is both marked by the fault monitor and in the phase's rotation
// slice is checked once, so with the repair budget spent its drift, its
// deferral and its scan are each counted once — at K=1, where the slice
// is the whole world, and at K=3.
func TestSweepVisitsEachTargetOnce(t *testing.T) {
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			c, w, pa, pb, _ := fig1Cloud(t)
			l, err := intent.Open(t.TempDir(), intent.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			c.EnableIntent(l)
			eip1, _, dst, _ := populate(t, c, w, pa, pb)
			r, err := c.EnableReconciler(ReconcilerConfig{AntiEntropyK: k})
			if err != nil {
				t.Fatal(err)
			}
			r.budget = 1
			phase := func() int { return int(r.Status().Sweeps % uint64(k)) }
			// Record what a sweep of the converged, unmarked world scans
			// in each phase.
			clean := make([]int, k)
			for i := 0; i < k; i++ {
				ph := phase()
				res := r.RunSweep()
				if sweepWork(res) != (SweepResult{}) || res.DirtyHits != 0 || res.AntiEntropyScanned != res.Scanned {
					t.Fatalf("clean sweep in phase %d = %+v", ph, res)
				}
				clean[ph] = res.Scanned
			}
			// Stop before the phase whose slice holds dst.
			for phase() != int(uint32(dst)%uint32(k)) {
				r.RunSweep()
			}
			// Have the fault monitor mark both lists, then corrupt both
			// behind the recorder's back.
			landDeferredPermit(t, c, eip1, topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1), addr.NewPrefix(dst, 32))
			landDeferredPermit(t, c, dst, topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1), pfx("10.9.0.0/16"))
			if !c.DriftWipePermit(eip1) || !c.DriftWipePermit(dst) {
				t.Fatal("drift injection failed")
			}
			want := SweepResult{
				DriftPermits: 2,
				Repaired:     1, Deferred: 1, // cloudA sweeps first: eip1's list takes the budget, cloudB's waits
				DirtyHits: 2,
				Scanned:   clean[phase()], // dst's mark replaces its rotation visit
			}
			if uint32(eip1)%uint32(k) != uint32(phase()) {
				want.Scanned++ // eip1's mark is outside this slice
			}
			want.AntiEntropyScanned = want.Scanned - 2
			if got := r.RunSweep(); got != want {
				t.Fatalf("sweep over two marked, drifted lists:\n got %+v\nwant %+v", got, want)
			}
			if q := r.Status().QueueDepth; q != 1 {
				t.Errorf("QueueDepth = %d, want 1", q)
			}
		})
	}
}

// TestSteadyStateSweepIsOneKthOfTheWorld is the sweep-cost gate as a
// count instead of a stopwatch: on a converged, unmarked world every
// sweep at K is pure rotation — no dirty hits, every scan an
// anti-entropy scan — and the K phases partition the world, so their
// Scanned counts sum to what one K=1 sweep scans. K=1 and K>1 run the
// same code, which leaves the count as the only cost that can differ.
func TestSteadyStateSweepIsOneKthOfTheWorld(t *testing.T) {
	c, w, pa, pb, _ := fig1Cloud(t)
	l, err := intent.Open(t.TempDir(), intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c.EnableIntent(l)
	populate(t, c, w, pa, pb)
	// Enough declared lists that sixteen slices each have some to hold.
	for i := 0; i < 48; i++ {
		eip, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[i%len(w.RegionsB)], "az1", 1+i%2))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Tenant("acme").SetPermitList(eip, []addr.Prefix{pfx(fmt.Sprintf("10.%d.0.0/16", i))}); err != nil {
			t.Fatal(err)
		}
	}
	whole := &Reconciler{cloud: c, cfg: ReconcilerConfig{AntiEntropyK: 1}, budget: repairBudget}
	want := whole.RunSweep()
	if sweepWork(want) != (SweepResult{}) || want.DirtyHits != 0 || want.AntiEntropyScanned != want.Scanned || want.Scanned < 48 {
		t.Fatalf("K=1 sweep of the converged world = %+v", want)
	}
	for _, k := range []int{2, 3, 8, 16} {
		r := &Reconciler{cloud: c, cfg: ReconcilerConfig{AntiEntropyK: k}, budget: repairBudget}
		sum, largest := 0, 0
		for phase := 0; phase < k; phase++ {
			res := r.RunSweep()
			if sweepWork(res) != (SweepResult{}) || res.DirtyHits != 0 || res.AntiEntropyScanned != res.Scanned {
				t.Fatalf("K=%d phase %d: steady-state sweep = %+v", k, phase, res)
			}
			sum += res.Scanned
			largest = max(largest, res.Scanned)
		}
		if sum != want.Scanned {
			t.Errorf("K=%d: the phases scanned %d targets in all, one K=1 sweep scans %d", k, sum, want.Scanned)
		}
		if largest == want.Scanned {
			t.Errorf("K=%d: one phase scanned the whole world (%d targets)", k, largest)
		}
	}
}

// TestRestoreIntentRebuildsTheLiveWorld pins recovery to the world that
// crashed: same digest, a declared-permitted flow still admitted, and
// the pool cursors rewound so the next grant matches the live world's.
func TestRestoreIntentRebuildsTheLiveWorld(t *testing.T) {
	dir := t.TempDir()
	c, w, pa, pb, _ := fig1Cloud(t)
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableIntent(l)
	eip1, _, dst, _ := populate(t, c, w, pa, pb)
	want := c.StateDigest()
	// Crash: no Close.

	l2, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	c2, w2, _, _, _ := fig1Cloud(t)
	if err := c2.RestoreIntent(l2.State()); err != nil {
		t.Fatal(err)
	}
	if got := c2.StateDigest(); got != want {
		t.Fatalf("digest mismatch\n got %s\nwant %s", got, want)
	}
	if !c2.Admitted(eip1, dst) {
		t.Errorf("recovered world rejects a declared-permitted flow")
	}
	nextLive, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az2", 2))
	if err != nil {
		t.Fatal(err)
	}
	nextRec, err := c2.Tenant("acme").RequestEIP(topo.HostID(w2.CloudA, w2.RegionsA[0], "az2", 2))
	if err != nil {
		t.Fatal(err)
	}
	if nextLive != nextRec {
		t.Fatalf("pool divergence: live %s, recovered %s", nextLive, nextRec)
	}
}

// TestSweepAfterOneMutationCopiesNothingWorldSized is the count behind
// "the reconciler reads declared state through instead of copying it": on
// a converged 20 000-endpoint world, one set_permit followed by a sweep
// at K=8 allocates the phase's target lists and nothing that grows with
// the world: 10 272 bytes for the 2 500 declared targets, gathered once
// for all three providers, and 154 128 in the two phases that also hold
// the permit engine's four occupied stripes (Engine.TargetsOf rotates by
// stripe, a /16 each). Each phase's budget is its figure × 1.25, so a
// sweep that gathered a declared surface once per provider would fail the
// six phases with empty stripes; the copy-on-write view this replaced
// allocated 2 459 232 to 2 602 432 bytes for the same step (every permit
// list re-copied, every surface re-bucketed), more than twelve times the
// larger budget.
func TestSweepAfterOneMutationCopiesNothingWorldSized(t *testing.T) {
	const endpoints, declaredBudget, stripesBudget = 20000, 10272 * 5 / 4, 154128 * 5 / 4
	c, w, pa, pb, _ := fig1Cloud(t)
	l, err := intent.Open(t.TempDir(), intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c.EnableIntent(l)
	r, err := c.EnableReconciler(ReconcilerConfig{AntiEntropyK: 8})
	if err != nil {
		t.Fatal(err)
	}
	homes := []struct {
		p  *Provider
		vm topo.NodeID
	}{
		{pa, topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)}, {pa, topo.HostID(w.CloudA, w.RegionsA[1], "az1", 1)},
		{pb, topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1)}, {pb, topo.HostID(w.CloudB, w.RegionsB[1], "az1", 1)},
	}
	lists := [][]permit.Entry{{pfx("100.64.0.0/16"), pfx("104.0.0.0/16")}, {pfx("100.65.0.0/16"), pfx("104.1.0.0/16")}}
	eips := make([]addr.IP, endpoints)
	for i := range eips {
		h := homes[i%len(homes)]
		if eips[i], err = c.Tenant("acme").RequestEIP(h.vm); err != nil {
			t.Fatal(err)
		}
		if err := c.Tenant("acme").SetPermitList(eips[i], lists[0]); err != nil {
			t.Fatal(err)
		}
	}
	for phase := 0; phase < 8; phase++ {
		r.RunSweep() // one full rotation before measuring
	}
	var before, after runtime.MemStats
	for phase := 0; phase < 8; phase++ {
		budget := uint64(declaredBudget)
		for _, p := range c.pidx.Load().list {
			if len(p.Permits.TargetsOf(phase, 8)) > 0 {
				budget = stripesBudget
			}
		}
		i := phase * 2477 % endpoints
		if err := c.Tenant("acme").SetPermitList(eips[i], lists[1]); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		res := r.RunSweep()
		runtime.ReadMemStats(&after)
		if sweepWork(res) != (SweepResult{}) || res.Scanned < endpoints/8 {
			t.Fatalf("phase %d: sweep = %+v", phase, res)
		}
		allocated := after.TotalAlloc - before.TotalAlloc
		t.Logf("phase %d: set_permit + sweep of %d targets allocated %d bytes", phase, res.Scanned, allocated)
		if allocated > budget {
			t.Errorf("phase %d: the sweep after one set_permit allocated %d bytes, budget %d", phase, allocated, budget)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { l.View() }); allocs != 0 {
		t.Errorf("View() with no mutation in between allocates %v times, want 0", allocs)
	}
}
