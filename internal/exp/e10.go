package exp

import (
	"fmt"
	"time"

	"declnet/internal/appliance"
	"declnet/internal/complexity"
	"declnet/internal/metrics"
	"declnet/internal/netsim"
	"declnet/internal/sim"
	"declnet/internal/simplane"
	"declnet/internal/topo"
	"declnet/internal/vnet"
)

// E10Availability tests §4's Availability story: the bind() verb with
// provider-managed load balancing should match what tenants get from a
// self-configured load-balancer appliance — at zero configuration.
//
// Both models run the same scenario: a service with three backends takes
// an open-loop request stream; one backend dies mid-run and is detected
// by health checks after the same detection delay. The table reports the
// request error rate, the time to full recovery, and what the tenant had
// to configure to get the failover.
func E10Availability(requestRate float64, seed int64) (*metrics.Table, error) {
	if requestRate <= 0 {
		requestRate = 200
	}
	const (
		horizon        = 10 * time.Second
		failAt         = 3 * time.Second
		detectionDelay = 1500 * time.Millisecond
	)

	// ---- Declarative: SIP + bind, provider runs the balancer. -----------
	declErrors, declTotal, declRecovery, declNet, err := e10Declarative(requestRate, horizon, failAt, detectionDelay, seed)
	if err != nil {
		return nil, err
	}

	// ---- Baseline: tenant-provisioned ALB with target group. -------------
	var led complexity.Ledger
	lb := appliance.NewLoadBalancer("alb", appliance.ApplicationLB, &led)
	tg := appliance.NewTargetGroup("tg")
	tg.HealthCheckPath, tg.HealthCheckInterval = "/healthz", int(detectionDelay/time.Second)
	for i := 1; i <= 3; i++ {
		tg.Register(fmt.Sprintf("i-%d", i))
	}
	lb.AddTargetGroup(tg, &led)
	if err := lb.SetDefault("tg", &led); err != nil {
		return nil, err
	}
	baseErrors, baseTotal, baseRecovery := e10Baseline(lb, tg, requestRate, horizon, failAt, detectionDelay, seed)

	t := &metrics.Table{
		Title:   "E10: backend failure under provider LB vs tenant LB appliance (§4 Availability)",
		Columns: []string{"metric", "baseline ALB", "declarative bind()"},
	}
	t.AddRow("requests", baseTotal, declTotal)
	t.AddRow("failed requests", baseErrors, declErrors)
	t.AddRow("error rate %", pct(baseErrors, baseTotal), pct(declErrors, declTotal))
	t.AddRow("recovery after failure", baseRecovery.Round(time.Millisecond).String(), declRecovery.Round(time.Millisecond).String())
	t.AddRow("tenant config params", led.Params(), 0)
	t.AddRow("tenant boxes", led.Boxes(), 0)
	t.Notes = append(t.Notes,
		"identical failure (1 of 3 backends at t=3s) and health-detection delay (1.5s) in both models",
		"declarative failover needs zero tenant configuration: bind() carries the intent")
	t.AddNotef("declarative solver cost: %d recomputes, %d flows touched, %d links touched",
		declNet.Recomputes, declNet.FlowsTouched, declNet.LinksTouched)
	return t, nil
}

func pct(part, whole int) string {
	if whole == 0 {
		return "0"
	}
	return fmt.Sprintf("%.2f", float64(part)/float64(whole)*100)
}

func e10Declarative(rate float64, horizon, failAt, detect time.Duration, seed int64) (errors, total int, recovery time.Duration, net *netsim.Network, err error) {
	d, err := BuildDeclarativeFig1(seed, 3)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	w := d.World
	// Third backend joins the SIP.
	db3, err := d.Cloud.Tenant(Tenant).RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 3))
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if err := d.Cloud.Tenant(Tenant).Bind(db3, d.DBService, 1); err != nil {
		return 0, 0, 0, nil, err
	}
	dead := d.DB1
	var lastError sim.Time
	failTime := sim.Time(failAt)

	// Fail at t=failAt; provider health check marks it down after detect.
	d.Sim.Eng.Schedule(failTime+sim.Time(detect), func() {
		d.ProvB.MarkHealth(dead, false)
	})
	// Open-loop requests.
	gap := sim.Time(float64(time.Second) / rate)
	var tick func()
	tick = func() {
		if d.Sim.Eng.Now() >= sim.Time(horizon) {
			return
		}
		total++
		conn, cerr := d.Sim.Tenant(Tenant).Connect(d.Spark1, d.DBService, simplane.ConnectOpts{SizeBytes: -1})
		if cerr != nil {
			errors++
			lastError = d.Sim.Eng.Now()
		} else {
			if conn.DstEIP == dead && d.Sim.Eng.Now() >= failTime {
				errors++
				lastError = d.Sim.Eng.Now()
			}
			conn.Close()
		}
		d.Sim.Eng.After(gap, tick)
	}
	d.Sim.Eng.After(0, tick)
	d.Sim.Eng.RunUntil(sim.Time(horizon))
	if lastError > failTime {
		recovery = time.Duration(lastError - failTime)
	}
	return errors, total, recovery, d.Sim.Net, nil
}

// e10Baseline replays the identical scenario against the tenant-built
// load balancer appliance: the same request stream, the same backend
// death, the same health-detection delay.
func e10Baseline(lb *appliance.LoadBalancer, tg *appliance.TargetGroup, rate float64, horizon, failAt, detect time.Duration, seed int64) (errors, total int, recovery time.Duration) {
	eng := sim.New(seed)
	const dead = "i-1"
	failTime := sim.Time(failAt)
	eng.Schedule(failTime+sim.Time(detect), func() {
		tg.SetHealth(dead, false)
	})
	var lastError sim.Time
	gap := sim.Time(float64(time.Second) / rate)
	var tick func()
	tick = func() {
		if eng.Now() >= sim.Time(horizon) {
			return
		}
		total++
		backend, err := lb.Route(appliance.Request{Path: "/orders", Flow: vnet.Packet{}})
		if err != nil || (backend == dead && eng.Now() >= failTime) {
			errors++
			lastError = eng.Now()
		}
		eng.After(gap, tick)
	}
	eng.After(0, tick)
	eng.RunUntil(sim.Time(horizon))
	if lastError > failTime {
		recovery = time.Duration(lastError - failTime)
	}
	return errors, total, recovery
}
