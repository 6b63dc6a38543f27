package exp

import (
	"fmt"
	"os"
	"strings"
	"time"

	"declnet/internal/addr"
	"declnet/internal/core"
	"declnet/internal/intent"
	"declnet/internal/metrics"
	"declnet/internal/obs"
	"declnet/internal/permit"
	"declnet/internal/simplane"
	"declnet/internal/topo"
)

// E15 soak geometry. The soak is a pure function of (seed, rounds):
// churn, drift, faults, and crash points all derive from the round
// index, so two runs produce the same table modulo the one measured
// wall-clock cell (mean recovery time), which the golden masks.
const (
	// e15Rounds is the golden tier: six rounds cover every drift
	// surface twice and land one mid-divergence crash. `make soak`
	// raises it to 48 via DECLNET_SOAK_ROUNDS (24 virtual hours).
	e15Rounds = 6
	// e15VirtualStep is simulated time per round, split around the
	// node fail/heal flap so the provider health loop ticks through
	// both states.
	e15VirtualStep = 30 * time.Minute
	// e15FlapPairs permit add/revoke pairs per round: mutation churn
	// that the journal must absorb without the declared and enforced
	// permit lists drifting apart.
	e15FlapPairs = 8
	// e15ChurnTenants distinct churn tenants cycled across rounds;
	// each round's grant is released e15ChurnTenants rounds later, so
	// the journal sees the full grant/release inversion surface.
	e15ChurnTenants = 4
	// e15MaxSweeps bounds the convergence loop per divergence window:
	// one sweep repairs, the next must confirm zero drift.
	e15MaxSweeps = 8
)

// e15World is one independently constructed copy of the soak world:
// Fig-1 topology, two cloud providers plus on-prem, a decision tracer,
// and a fault injector. The soak runs two of them — the subject (with
// the durable store and reconciler) and an uncrashed oracle — and
// requires them byte-equivalent after every round.
type e15World struct {
	fig    *topo.Fig1World
	c      *core.Cloud
	sim    *simplane.Plane
	tracer *obs.Tracer
}

func newE15World(seed int64) (*e15World, error) {
	w := topo.BuildFig1(2)
	sp := simplane.New(seed, w.Graph)
	c := core.NewCloud(w.Graph, sp)
	if _, _, _, err := core.AddFig1Providers(c, w); err != nil {
		return nil, fmt.Errorf("exp: E15 world: %w", err)
	}
	// A large ring so per-round cumulative event counts never lose
	// older reconcile events to eviction.
	tracer := obs.NewTracer(1 << 16)
	c.EnableObservability(tracer, nil)
	c.EnableFaults(core.FaultPolicy{})
	return &e15World{fig: w, c: c, sim: sp, tracer: tracer}, nil
}

// e15Addrs is the fixed address cast: two cloudA EIPs (a2 permits a1),
// a cloudB backend EIP bound to a service SIP that permits a1, and a
// QoS cap on the backend's region. b1 keeps no permit list, so the
// third Explain probe exercises the default-off deny verdict.
type e15Addrs struct {
	a1, a2, b1 core.EIP
	s          core.SIP
}

func (w *e15World) setup() (e15Addrs, error) {
	var a e15Addrs
	acme := w.c.Tenant("acme")
	var err error
	if a.a1, err = acme.RequestEIP(topo.HostID(w.fig.CloudA, "a-east", "az1", 1)); err != nil {
		return a, err
	}
	if a.a2, err = acme.RequestEIP(topo.HostID(w.fig.CloudA, "a-west", "az1", 1)); err != nil {
		return a, err
	}
	if a.b1, err = acme.RequestEIP(topo.HostID(w.fig.CloudB, "b-east", "az1", 1)); err != nil {
		return a, err
	}
	if a.s, err = acme.RequestSIP(w.fig.CloudB); err != nil {
		return a, err
	}
	if err = acme.Bind(a.b1, a.s, 1); err != nil {
		return a, err
	}
	exact := func(e core.EIP) permit.Entry { return addr.NewPrefix(addr.IP(e), 32) }
	if err = acme.SetPermitList(addr.IP(a.a2), []permit.Entry{exact(a.a1)}); err != nil {
		return a, err
	}
	if err = acme.SetPermitList(addr.IP(a.s), []permit.Entry{exact(a.a1)}); err != nil {
		return a, err
	}
	err = acme.SetQoS(w.fig.CloudB, "b-east", 1e9)
	return a, err
}

// e15Churn applies round r's deterministic mutation plan: a fresh grant
// plus permit list for the round's churn tenant, a burst of permit
// add/revoke flaps on the service address, a QoS rewrite, and (once the
// pipeline is full) the release of the grant from e15ChurnTenants
// rounds ago. The same plan runs against subject and oracle.
func e15Churn(w *e15World, a e15Addrs, r int, grants []core.EIP) (eip core.EIP, err error) {
	tn, acme := w.c.Tenant(fmt.Sprintf("churn%02d", r%e15ChurnTenants)), w.c.Tenant("acme")
	az := "az1"
	if r%2 == 1 {
		az = "az2"
	}
	if eip, err = tn.RequestEIP(topo.HostID(w.fig.CloudA, "a-east", az, r%2+1)); err != nil {
		return eip, err
	}
	if err = tn.SetPermitList(addr.IP(eip), []permit.Entry{addr.NewPrefix(addr.IP(a.a1), 32)}); err != nil {
		return eip, err
	}
	flap := addr.NewPrefix(addr.IP(a.a2), 32)
	for i := 0; i < e15FlapPairs; i++ {
		if err = acme.Permit(addr.IP(a.s), flap); err != nil {
			return eip, err
		}
		if err = acme.Revoke(addr.IP(a.s), flap); err != nil {
			return eip, err
		}
	}
	if err = acme.SetQoS(w.fig.CloudB, "b-east", float64(1+r%3)*1e9); err != nil {
		return eip, err
	}
	if r >= e15ChurnTenants {
		old := fmt.Sprintf("churn%02d", (r-e15ChurnTenants)%e15ChurnTenants)
		if err = w.c.Tenant(old).ReleaseEIP(grants[r-e15ChurnTenants]); err != nil {
			return eip, err
		}
	}
	return eip, nil
}

// e15Verdict is the comparable slice of an Explanation: the admission
// verdict and its root cause, with the virtual timestamp (which differs
// across a restart) deliberately excluded.
type e15Verdict struct {
	Reachable bool
	Root      string
}

func e15Explain(w *e15World, a e15Addrs) ([]e15Verdict, error) {
	out := make([]e15Verdict, 0, 3)
	for _, dst := range []addr.IP{addr.IP(a.a2), addr.IP(a.s), addr.IP(a.b1)} {
		ex, err := w.c.Tenant("acme").Explain(a.a1, dst)
		if err != nil {
			return nil, err
		}
		out = append(out, e15Verdict{ex.Reachable, ex.RootCause})
	}
	return out, nil
}

// E15ChaosSoak runs the chaos soak: a subject world journaling every
// mutation into a durable intent store, an oracle world applying the
// identical churn without ever crashing. Each round flaps a node, churns
// grants/permits/QoS through both worlds, injects dataplane drift into
// the subject only, and every fourth round crashes the subject
// mid-divergence (the live Log abandoned un-Closed) and recovers it by
// replaying the store into a fresh world. Every divergence window must
// close — by reconciler sweep or by the restart rebuild — and after
// every round the subject's state digest and Explain verdicts must be
// byte-equivalent to the oracle's, with each reconciler repair
// accounted for in the decision trace as reconcile:* <- drift:*.
func E15ChaosSoak(seed int64, rounds int) (*metrics.Table, error) {
	dir, err := os.MkdirTemp("", "declnet-e15-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	subject, err := newE15World(seed)
	if err != nil {
		return nil, err
	}
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		return nil, err
	}
	subject.c.EnableIntent(l)
	rec, err := subject.c.EnableReconciler(core.ReconcilerConfig{})
	if err != nil {
		return nil, err
	}
	oracle, err := newE15World(seed)
	if err != nil {
		return nil, err
	}
	sa, err := subject.setup()
	if err != nil {
		return nil, fmt.Errorf("exp: E15 subject setup: %w", err)
	}
	oa, err := oracle.setup()
	if err != nil {
		return nil, fmt.Errorf("exp: E15 oracle setup: %w", err)
	}
	if sa != oa {
		return nil, fmt.Errorf("exp: E15 worlds granted different addresses at setup: %+v vs %+v", sa, oa)
	}

	flapA := topo.HostID(subject.fig.CloudB, "b-west", "az2", 2)
	advance := func(w *e15World, d time.Duration) { w.sim.Eng.RunUntil(w.sim.Eng.Now() + d) }

	var (
		grants                         []core.EIP
		compactions, crashes           int
		recoveredOK, healedByRecovery  int
		driftP, driftB, driftQ         int
		opened, closed                 int
		repaired, deferred, sweeps     int
		traced, seenTraced             int
		digestOK, verdicts, mismatches int
		poolDiverged                   int
		appendErrs                     uint64
		recoverWall                    time.Duration
	)

	for r := 0; r < rounds; r++ {
		// Churn: the identical mutation plan against both worlds. The
		// address pools must stay in lockstep — a diverging grant means
		// recovery did not restore the allocation cursors.
		sEIP, err := e15Churn(subject, sa, r, grants)
		if err != nil {
			return nil, fmt.Errorf("exp: E15 round %d subject churn: %w", r, err)
		}
		oEIP, err := e15Churn(oracle, oa, r, grants)
		if err != nil {
			return nil, fmt.Errorf("exp: E15 round %d oracle churn: %w", r, err)
		}
		if sEIP != oEIP {
			poolDiverged++
		}
		grants = append(grants, sEIP)

		// Fault/heal flap on a node hosting no bound backend: each heal
		// bumps the routing epoch and the health loop ticks through both
		// states as virtual time advances in both worlds.
		for _, w := range []*e15World{subject, oracle} {
			if err := w.sim.Inj.FailNode(flapA); err != nil {
				return nil, err
			}
			advance(w, e15VirtualStep/3)
			if err := w.sim.Inj.RestoreNode(flapA); err != nil {
				return nil, err
			}
			advance(w, 2*e15VirtualStep/3)
		}

		// Periodic snapshot + journal truncation, so recovery always
		// folds a snapshot and a live tail.
		if r%4 == 1 {
			if err := l.Compact(); err != nil {
				return nil, fmt.Errorf("exp: E15 round %d compact: %w", r, err)
			}
			compactions++
		}

		// Inject dataplane drift into the subject only, cycling the
		// three reconciled surfaces. Each injection opens a divergence
		// window that must close before the round ends.
		ok := false
		switch r % 3 {
		case 0:
			ok = subject.c.DriftWipePermit(addr.IP(sa.a2))
			driftP++
		case 1:
			ok = subject.c.DriftUnbind(sa.s, sa.b1)
			driftB++
		case 2:
			ok = subject.c.DriftZeroQuota(subject.fig.CloudB, "acme", "b-east")
			driftQ++
		}
		if !ok {
			return nil, fmt.Errorf("exp: E15 round %d: drift injection %d failed", r, r%3)
		}
		opened++

		// Every fourth round: crash mid-divergence. The live Log is
		// abandoned without Close, the store reopened, and a fresh world
		// rebuilt from snapshot + journal tail. The rebuild itself heals
		// the open window — the dataplane is reconstructed from declared
		// intent — and must land byte-identical to the oracle.
		if r%4 == 3 {
			crashes++
			start := time.Now()
			l2, err := intent.Open(dir, intent.Options{})
			if err != nil {
				return nil, fmt.Errorf("exp: E15 round %d reopen: %w", r, err)
			}
			fresh, err := newE15World(seed)
			if err != nil {
				return nil, err
			}
			if err := fresh.c.RestoreIntent(l2.State()); err != nil {
				return nil, fmt.Errorf("exp: E15 round %d restore: %w", r, err)
			}
			fresh.c.EnableIntent(l2)
			rec2, err := fresh.c.EnableReconciler(core.ReconcilerConfig{})
			if err != nil {
				return nil, err
			}
			recoverWall += time.Since(start)
			appendErrs += l.Stats().AppendErrors
			subject, l, rec = fresh, l2, rec2
			seenTraced = 0
			healedByRecovery++
			if subject.c.StateDigest() == oracle.c.StateDigest() {
				recoveredOK++
			}
		}

		// Converge: sweep until a sweep reports zero drift. Non-crash
		// rounds need two sweeps (repair, then confirm); crash rounds
		// confirm immediately since recovery already healed the window.
		converged := false
		for i := 0; i < e15MaxSweeps && !converged; i++ {
			res := rec.RunSweep()
			sweeps++
			repaired += res.Repaired
			deferred += res.Deferred
			converged = res.DriftPermits+res.DriftBinds+res.DriftQuotas == 0
		}
		if converged {
			closed++
		}

		// Equivalence: state digest and Explain verdicts against the
		// uncrashed oracle, every round.
		if subject.c.StateDigest() == oracle.c.StateDigest() {
			digestOK++
		}
		sv, err := e15Explain(subject, sa)
		if err != nil {
			return nil, err
		}
		ov, err := e15Explain(oracle, oa)
		if err != nil {
			return nil, err
		}
		for i := range sv {
			verdicts++
			if sv[i] != ov[i] {
				mismatches++
			}
		}

		// Accounting: every reconciler repair must land in the decision
		// trace with a reconcile:* <- drift:* cause chain.
		count := 0
		for _, ev := range subject.tracer.Recent("acme", 0) {
			if ev.Kind == obs.Reconcile && ev.Verdict == "repaired" &&
				strings.Contains(ev.Cause, "reconcile:") && strings.Contains(ev.Cause, "drift:") {
				count++
			}
		}
		traced += count - seenTraced
		seenTraced = count
	}
	appendErrs += l.Stats().AppendErrors
	finalSeq := l.Seq()
	l.Close()

	t := &metrics.Table{
		Title:   "E15: chaos soak — durable intent, crash/restart recovery, reconciliation",
		Columns: []string{"metric", "value"},
	}
	yn := func(ok bool) string {
		if ok {
			return "yes"
		}
		return "no"
	}
	t.AddRow("rounds completed", fmt.Sprintf("%d", rounds))
	t.AddRow("virtual soak time", fmt.Sprintf("%d min (%d rounds of %d min)",
		rounds*int(e15VirtualStep/time.Minute), rounds, int(e15VirtualStep/time.Minute)))
	t.AddRow("mutations journaled (final seq)", fmt.Sprintf("%d", finalSeq))
	t.AddRow("snapshot compactions", fmt.Sprintf("%d", compactions))
	t.AddRow("crash/restart cycles", fmt.Sprintf("%d", crashes))
	t.AddRow("recoveries byte-identical to oracle", fmt.Sprintf("%d/%d", recoveredOK, crashes))
	if crashes > 0 {
		t.AddRow("mean recovery wall clock", fmt.Sprintf("%.2fms",
			float64(recoverWall.Microseconds())/float64(crashes)/1000))
	}
	t.AddRow("drift injected (permit/bind/qos)", fmt.Sprintf("%d/%d/%d", driftP, driftB, driftQ))
	t.AddRow("divergence windows opened/closed", fmt.Sprintf("%d/%d", opened, closed))
	t.AddRow("repaired by reconciler", fmt.Sprintf("%d", repaired))
	t.AddRow("healed by crash recovery", fmt.Sprintf("%d", healedByRecovery))
	t.AddRow("repairs deferred", fmt.Sprintf("%d", deferred))
	t.AddRow("reconciler sweeps", fmt.Sprintf("%d", sweeps))
	t.AddRow("repairs traced (reconcile:* <- drift:*)", fmt.Sprintf("%d", traced))
	t.AddRow("state digest matches", fmt.Sprintf("%d/%d", digestOK, rounds))
	t.AddRow("explain verdicts compared/mismatched", fmt.Sprintf("%d/%d", verdicts, mismatches))
	t.AddRow("journal append errors", fmt.Sprintf("%d", appendErrs))
	t.AddRow("pool grants identical across worlds", yn(poolDiverged == 0))
	gate := "pass"
	if opened != closed || digestOK != rounds || mismatches != 0 ||
		traced != repaired || recoveredOK != crashes || healedByRecovery+repaired != opened ||
		appendErrs != 0 || poolDiverged != 0 {
		gate = "FAIL"
	}
	t.AddRow("soak gate", gate)
	t.AddNotef("drift cycles wipe-permit / unbind / zero-quota; every 4th round crashes the subject mid-divergence (Log abandoned un-Closed)")
	t.AddNotef("the oracle world applies identical churn uncrashed; digest and verdict cells compare subject against it byte-for-byte")
	t.AddNotef("recovery wall clock is measured and masked in the golden")
	return t, nil
}
