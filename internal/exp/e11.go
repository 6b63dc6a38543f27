package exp

import (
	"fmt"
	"time"

	"declnet/internal/appliance"
	"declnet/internal/complexity"
	"declnet/internal/core"
	"declnet/internal/metrics"
	"declnet/internal/sim"
	"declnet/internal/topo"
	"declnet/internal/vnet"
)

// E11AvailabilityDrill is the end-to-end failure drill the fault
// subsystem exists for: a database backend's host dies mid-run and later
// returns, injected as first-class events through internal/fault.
//
// In the declarative model the provider's health monitor notices, pulls
// the SIP binding, serves from the survivors, and re-binds after the
// recovery backoff — the tenant makes zero API calls. In the baseline the
// tenant's own monitoring must notice the outage and an operator must
// deregister (and later re-register) the target by hand, modeled as a
// fixed operator reaction delay plus explicit reconfiguration calls.
//
// The table reports goodput during the failure window, MTTR (time from
// failure until the error stream stops), and the tenant-side work needed.
func E11AvailabilityDrill(requestRate float64, seed int64) (*metrics.Table, error) {
	if requestRate <= 0 {
		requestRate = 200
	}
	const (
		horizon  = 12 * time.Second
		failAt   = 3 * time.Second
		healAt   = 7 * time.Second
		opsDelay = 2 * time.Second // baseline operator reaction time
	)
	policy := core.FaultPolicy{HealthInterval: 250 * time.Millisecond}

	decl, m, err := e11Declarative(requestRate, horizon, failAt, healAt, policy, seed)
	if err != nil {
		return nil, err
	}
	base, led, baseCalls := e11Baseline(requestRate, horizon, failAt, healAt, opsDelay, seed)

	t := &metrics.Table{
		Title:   "E11: availability drill — node failure + recovery, declnet failover vs hand reconfiguration",
		Columns: []string{"metric", "baseline (manual)", "declarative (provider)"},
	}
	t.AddRow("requests", base.total, decl.total)
	t.AddRow("failed requests", base.errors, decl.errors)
	t.AddRow("error rate %", pct(base.errors, base.total), pct(decl.errors, decl.total))
	t.AddRow("goodput during failure %", pct(base.windowOK, base.windowTotal), pct(decl.windowOK, decl.windowTotal))
	t.AddRow("MTTR", base.mttr.Round(time.Millisecond).String(), decl.mttr.Round(time.Millisecond).String())
	t.AddRow("tenant API calls during drill", baseCalls, 0)
	t.AddRow("tenant config params", led.Params(), 0)
	t.Notes = append(t.Notes,
		fmt.Sprintf("identical drill in both models: backend host down at t=%v, back at t=%v", failAt, healAt),
		fmt.Sprintf("provider policy: %v health checks, down after %d misses, %v re-bind backoff",
			policy.HealthInterval, core.DownAfter, core.RebindBackoff),
		fmt.Sprintf("baseline operator reacts %v after each transition (deregister, re-register)", opsDelay))
	t.AddNotef("provider-side events: %d failover, %d re-bind; tenant saw none of them",
		m.Failovers, m.Rebinds)
	return t, nil
}

// e11Stats accumulates one arm's request stream.
type e11Stats struct {
	total, errors         int
	windowTotal, windowOK int
	mttr                  time.Duration
}

func e11Declarative(rate float64, horizon, failAt, healAt time.Duration, policy core.FaultPolicy, seed int64) (e11Stats, *core.FaultMonitor, error) {
	var st e11Stats
	d, err := BuildDeclarativeFig1(seed, 3)
	if err != nil {
		return st, nil, err
	}
	c := d.Cloud
	w := d.World
	// Third backend joins the SIP so two survive the drill.
	db3, err := d.Cloud.Tenant(Tenant).RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 3))
	if err != nil {
		return st, nil, err
	}
	if err := d.Cloud.Tenant(Tenant).Bind(db3, d.DBService, 1); err != nil {
		return st, nil, err
	}
	m := c.EnableFaults(policy)

	dead := d.DB1
	deadNode, ok := d.ProvB.Lookup(dead)
	if !ok {
		return st, nil, fmt.Errorf("exp: no node behind %s", dead)
	}
	c.Eng.Schedule(sim.Time(failAt), func() {
		if err := m.Inj.FailNode(deadNode); err != nil {
			panic(err)
		}
	})
	c.Eng.Schedule(sim.Time(healAt), func() {
		if err := m.Inj.RestoreNode(deadNode); err != nil {
			panic(err)
		}
	})

	var lastError sim.Time
	gap := sim.Time(float64(time.Second) / rate)
	var tick func()
	tick = func() {
		if c.Eng.Now() >= sim.Time(horizon) {
			return
		}
		now := c.Eng.Now()
		inWindow := now >= sim.Time(failAt) && now < sim.Time(healAt)
		st.total++
		if inWindow {
			st.windowTotal++
		}
		failed := false
		conn, cerr := c.Tenant(Tenant).Connect(d.Spark1, d.DBService, core.ConnectOpts{SizeBytes: -1})
		if cerr != nil {
			failed = true
		} else {
			if conn.DstEIP == dead && inWindow {
				failed = true
			}
			conn.Close()
		}
		if failed {
			st.errors++
			lastError = now
		} else if inWindow {
			st.windowOK++
		}
		c.Eng.After(gap, tick)
	}
	c.Eng.After(0, tick)
	c.Eng.RunUntil(sim.Time(horizon))
	if lastError > sim.Time(failAt) {
		st.mttr = time.Duration(lastError - sim.Time(failAt))
	}
	return st, m, nil
}

// e11Baseline replays the drill against a tenant-run load balancer: the
// tenant's own monitoring notices the dead target opsDelay after each
// transition and an operator edits the target group by hand.
func e11Baseline(rate float64, horizon, failAt, healAt, opsDelay time.Duration, seed int64) (e11Stats, *complexity.Ledger, int) {
	var st e11Stats
	led := &complexity.Ledger{}
	lb := appliance.NewLoadBalancer("alb", appliance.ApplicationLB, led)
	tg := appliance.NewTargetGroup("tg")
	tg.HealthCheckPath, tg.HealthCheckInterval = "/healthz", int(opsDelay/time.Second)
	for i := 1; i <= 3; i++ {
		tg.Register(fmt.Sprintf("i-%d", i))
	}
	lb.AddTargetGroup(tg, led)
	if err := lb.SetDefault("tg", led); err != nil {
		panic(err)
	}

	eng := sim.New(seed)
	const dead = "i-1"
	apiCalls := 0
	// Operator deregisters the dead target once monitoring fires, and
	// re-registers it the same delay after the host returns.
	eng.Schedule(sim.Time(failAt+opsDelay), func() {
		tg.SetHealth(dead, false)
		apiCalls++
	})
	eng.Schedule(sim.Time(healAt+opsDelay), func() {
		tg.SetHealth(dead, true)
		apiCalls++
	})

	var lastError sim.Time
	gap := sim.Time(float64(time.Second) / rate)
	var tick func()
	tick = func() {
		if eng.Now() >= sim.Time(horizon) {
			return
		}
		now := eng.Now()
		inWindow := now >= sim.Time(failAt) && now < sim.Time(healAt)
		st.total++
		if inWindow {
			st.windowTotal++
		}
		backend, err := lb.Route(appliance.Request{Path: "/orders", Flow: vnet.Packet{}})
		if err != nil || (backend == dead && inWindow) {
			st.errors++
			lastError = now
		} else if inWindow {
			st.windowOK++
		}
		eng.After(gap, tick)
	}
	eng.After(0, tick)
	eng.RunUntil(sim.Time(horizon))
	if lastError > sim.Time(failAt) {
		st.mttr = time.Duration(lastError - sim.Time(failAt))
	}
	return st, led, apiCalls
}
