package exp

import (
	"fmt"
	"strings"
	"time"

	"declnet/internal/addr"
	"declnet/internal/core"
	"declnet/internal/metrics"
	"declnet/internal/obs"
	"declnet/internal/permit"
	"declnet/internal/slo"
	"declnet/internal/topo"
)

// E14 drill geometry. Windows are driven explicitly (AdvanceWindow), so
// the experiment is a pure function of its op sequence; only the wall
// clock inside each latency cell varies, and the golden masks exactly
// those cells.
const (
	// e14ProbesPerWindow gives the detector windows enough mass that a
	// single stray outlier (one cold probe leaking into a warm window, a
	// GC pause) cannot set the window p99: with 256 samples the 0.99
	// quantile excludes the top two.
	e14ProbesPerWindow = 256
	// e14StormPairs permit/revoke pairs per detection window — 512
	// mutation ops, comfortably over the detector's 64-op storm floor and
	// 4x-dominance test against the idle observer.
	e14StormPairs = 256
	// e14MaxWindows bounds the detection retry budget: the breach must
	// fire within this many (warm, storm) window pairs.
	e14MaxWindows = 6
	// e14ErrorProbes deny-path probes retained in the flight recorder.
	e14ErrorProbes = 3
)

// E14NoisyNeighbor is the live counterpart of E13's offline storm gate:
// the SLO plane watching a running world. An observer tenant in cloudA
// probes across its own regions while a noisy tenant storms permit
// mutations against its own shard in cloudB; a node fail/heal flap rides
// along with the storm (the churny-neighbor signature: every epoch bump
// wholesale-flushes the path cache, so the observer's probes recompute
// routes cold). The detector must flag the observer shard's p99 breach
// against its own trailing baseline, name the storming shard via the
// decision-trace cause chain, and land a slo-breach event in the
// victim's trace ring — all within a bounded number of windows.
func E14NoisyNeighbor(seed int64) (*metrics.Table, error) {
	w := topo.BuildFig1(2)
	c := core.NewCloud(seed, w.Graph)
	if _, _, _, err := core.AddFig1Providers(c, w); err != nil {
		return nil, fmt.Errorf("exp: E14 world: %w", err)
	}
	tracer := obs.NewTracer(0)
	c.EnableObservability(tracer, nil)
	plane := slo.NewPlane(slo.Config{
		Window:          time.Hour, // rotation is explicit below
		SampleEvery:     1,
		HistSampleEvery: 1, // exact counts: the drill is the oracle
		LagSampleEvery:  1,
	})
	c.EnableSLO(plane)

	plane.SetObjective("observer", slo.Objective{
		ConnectP99:   100 * time.Millisecond,
		PermitLagP99: time.Second,
	})
	exact := func(ip addr.IP) permit.Entry { return addr.NewPrefix(ip, 32) }

	observer, noisy := c.Tenant("observer"), c.Tenant("noisy")
	// Observer: one EIP per cloudA region, each permitting the other, so
	// cross-region probes exercise the real admission + path planes.
	obsEast, err := observer.RequestEIP(topo.HostID(w.CloudA, "a-east", "az1", 1))
	if err != nil {
		return nil, err
	}
	obsWest, err := observer.RequestEIP(topo.HostID(w.CloudA, "a-west", "az1", 1))
	if err != nil {
		return nil, err
	}
	if err := observer.SetPermitList(obsEast, []permit.Entry{exact(addr.IP(obsWest))}); err != nil {
		return nil, err
	}
	if err := observer.SetPermitList(obsWest, []permit.Entry{exact(addr.IP(obsEast))}); err != nil {
		return nil, err
	}
	// Noisy: one EIP in cloudB/b-east, the storm's confinement shard.
	noisyEIP, err := noisy.RequestEIP(topo.HostID(w.CloudB, "b-east", "az1", 1))
	if err != nil {
		return nil, err
	}
	if err := noisy.SetPermitList(noisyEIP, []permit.Entry{exact(addr.IP(noisyEIP))}); err != nil {
		return nil, err
	}
	obsShard := "observer@" + w.CloudA + "/a-east"
	noisyShard := "noisy@" + w.CloudB + "/b-east"

	// Warm-up (window generation 0): both directions once, which also
	// resolves the two pending permit-lag stamps from the setup
	// SetPermitLists on first admission fill.
	if _, _, err := observer.Probe(obsEast, addr.IP(obsWest)); err != nil {
		return nil, fmt.Errorf("exp: E14 warm-up: %w", err)
	}
	if _, _, err := observer.Probe(obsWest, addr.IP(obsEast)); err != nil {
		return nil, fmt.Errorf("exp: E14 warm-up: %w", err)
	}

	// The flapped node hosts nothing and sits off the probe path; its
	// heal is purely an epoch bump that chills the path cache.
	flapNode := topo.HostID(w.CloudB, "b-west", "az2", 2)
	inj := c.EnableFaults(core.FaultPolicy{}).Inj
	stormEntry := exact(addr.IP(obsEast)) // content is irrelevant to the storm

	var health slo.HealthReport
	var breach *slo.Breach
	for round := 0; round < e14MaxWindows && breach == nil; round++ {
		// Warm window: cache-hot probes become the trailing baseline.
		plane.AdvanceWindow()
		for i := 0; i < e14ProbesPerWindow; i++ {
			if _, _, err := observer.Probe(obsEast, addr.IP(obsWest)); err != nil {
				return nil, err
			}
		}
		plane.AdvanceWindow()
		// Storm window: the noisy tenant flaps permits on its own shard…
		for i := 0; i < e14StormPairs; i++ {
			if err := noisy.Permit(addr.IP(noisyEIP), stormEntry); err != nil {
				return nil, err
			}
			if err := noisy.Revoke(addr.IP(noisyEIP), stormEntry); err != nil {
				return nil, err
			}
		}
		// …while a node flap per probe keeps the observer's path cold.
		for i := 0; i < e14ProbesPerWindow; i++ {
			if err := inj.FailNode(flapNode); err != nil {
				return nil, err
			}
			if err := inj.RestoreNode(flapNode); err != nil {
				return nil, err
			}
			if _, _, err := observer.Probe(obsEast, addr.IP(obsWest)); err != nil {
				return nil, err
			}
		}
		health = plane.Health()
		for i := range health.Breaches {
			if health.Breaches[i].Shard == obsShard {
				breach = &health.Breaches[i]
				break
			}
		}
	}

	// Deny-path probes land error spans in the flight recorder (retained
	// regardless of sampling; here they are the freshest ring entries).
	for i := 0; i < e14ErrorProbes; i++ {
		if _, _, err := observer.Probe(obsEast, addr.IP(noisyEIP)); err == nil {
			return nil, fmt.Errorf("exp: E14: probe to unpermitted %s unexpectedly admitted", noisyEIP)
		}
	}
	errSpans := 0
	for _, sp := range plane.Flight(0) {
		if sp.Why == "error" && sp.Err != "" {
			errSpans++
		}
	}
	lagResolved := uint64(0)
	for _, s := range plane.Report("") {
		for _, sh := range s.Shards {
			lagResolved += sh.LagCount
		}
	}
	traced := "no"
	for _, ev := range tracer.Recent("observer", 0) {
		if ev.Kind == obs.SLOBreach {
			traced = "yes"
		}
	}

	t := &metrics.Table{
		Title:   "E14: live SLO plane — noisy-neighbor detection under a confined permit storm",
		Columns: []string{"metric", "value"},
	}
	t.AddRow("observer / noisy shards", obsShard+" / "+noisyShard)
	yn := func(ok bool) string {
		if ok {
			return "yes"
		}
		return "no"
	}
	t.AddRow("breach detected (cur p99 > 1.5x baseline)", yn(breach != nil))
	if breach != nil {
		t.AddRow("victim shard flagged", breach.Shard)
		t.AddRow("suspected noisy neighbor", breach.Suspect)
		t.AddRow("attribution correct", yn(breach.Suspect == noisyShard))
		t.AddRow("suspect mutation ops in breach window", fmt.Sprintf("%d", breach.SuspectOps))
		t.AddRow("cur / baseline window p99", fmt.Sprintf("%.1fus / %.1fus", breach.CurP99US, breach.BaseP99US))
		t.AddRow("breach ratio", fmt.Sprintf("%.2fx", breach.Ratio))
		t.AddRow("cause chain names suspect", yn(strings.Contains(breach.Cause, "noisy-neighbor:"+noisyShard)))
	}
	t.AddRow("slo-breach event in decision trace", traced)
	t.AddRow("error spans retained in flight (why=error)", fmt.Sprintf("%d", errSpans))
	t.AddRow("live permit-lag samples resolved", fmt.Sprintf("%d", lagResolved))
	objRow := "unregistered"
	for _, rep := range plane.Report("observer") {
		if rep.Tenant == "observer" && rep.Objective != nil {
			objRow = fmt.Sprintf("%s (burn %.2f)", yn(rep.Objective.Met), rep.Objective.ConnectBurnRate)
		}
	}
	t.AddRow("objective connect_p99<=100ms met", objRow)
	gate := "pass"
	if breach == nil || breach.Suspect != noisyShard || traced != "yes" ||
		errSpans != e14ErrorProbes || health.Status != "degraded" {
		gate = "FAIL"
	}
	t.AddRow("detection gate", gate)
	t.AddNotef("storm: %d permit flaps confined to %s; a node fail/heal flap per probe chills the observer's path cache",
		e14StormPairs*2, noisyShard)
	t.AddNotef("windows driven explicitly, %d probes each; the detector must fire within %d (warm, storm) pairs",
		e14ProbesPerWindow, e14MaxWindows)
	t.AddNotef("timing cells are measured wall clock and masked in the golden")
	return t, nil
}
