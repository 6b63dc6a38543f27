package exp

import (
	"fmt"
	"math/rand"
	"time"

	"declnet/internal/metrics"
	"declnet/internal/sim"
	"declnet/internal/simplane"
)

// demandFlow is a synthetic offered load for limiter experiments.
type demandFlow struct {
	demand float64
	cap    float64
}

func (f *demandFlow) SetCap(bps float64) { f.cap = bps }
func (f *demandFlow) Demand() float64    { return f.demand }

func (f *demandFlow) rate() float64 {
	if f.cap > 0 && f.cap < f.demand {
		return f.cap
	}
	return f.demand
}

// E5QuotaEnforce answers §6(i)'s third question: "Can egress bandwidth
// quotas be scalably enforced?"
//
// A regional quota is enforced by a distributed limiter over E enforcement
// points while flows churn (Poisson arrivals, exponential holding times,
// heavy-tailed demands). For each (flow count, control period) cell the
// table reports the relative enforcement error — how far the granted
// aggregate strays from min(quota, demand) — sampled right before each
// control round (worst case) and the violation overshoot.
func E5QuotaEnforce(flowCounts []int, periods []sim.Time, seed int64) (*metrics.Table, error) {
	t := &metrics.Table{
		Title: "E5: distributed egress-quota enforcement error (§6(i))",
		Columns: []string{"flows", "period", "mean err %", "p99 err %",
			"overshoot %", "rounds"},
	}
	// Flatten the (flows, period) grid into independent cells; each builds
	// its own engine, so the grid can run on the parallel sweep driver.
	type cellKey struct {
		n      int
		period sim.Time
	}
	var cells []cellKey
	for _, n := range flowCounts {
		for _, period := range periods {
			cells = append(cells, cellKey{n, period})
		}
	}
	results, err := sweepCells(len(cells), func(cell int) (e5Result, error) {
		return e5Run(cells[cell].n, cells[cell].period, seed), nil
	})
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		t.AddRow(cells[i].n, cells[i].period.String(),
			fmt.Sprintf("%.2f", res.meanErr*100),
			fmt.Sprintf("%.2f", res.p99Err*100),
			fmt.Sprintf("%.2f", res.overshoot*100),
			res.rounds)
	}
	t.Notes = append(t.Notes,
		"quota 1 Gbps over 16 enforcement points; flows churn with 200ms mean holding time",
		"error sampled just before each control round (staleest grants)")
	return t, nil
}

type e5Result struct {
	meanErr   float64
	p99Err    float64
	overshoot float64
	rounds    uint64
}

func e5Run(flows int, period sim.Time, seed int64) e5Result {
	const (
		quota     = 1e9
		enforcers = 16
		horizon   = 5 * time.Second
	)
	eng := sim.New(seed)
	rng := eng.NewRand()
	enf := make([]*simplane.Enforcer, enforcers)
	for i := range enf {
		enf[i] = simplane.NewEnforcer(fmt.Sprintf("e%d", i))
	}
	lim := simplane.NewDistributedLimiter(quota, period, enf...)
	// A daemon ticker: the control loop must not keep a drained
	// simulation alive on its own.
	ctl := eng.EveryDaemon(period, lim.Redistribute)

	// Churn: keep ~`flows` alive; each lives ~200ms then is replaced.
	live := 0
	var spawn func()
	spawn = func() {
		if live >= flows {
			// Try again shortly.
			eng.After(10*time.Millisecond, spawn)
			return
		}
		e := enf[rng.Intn(enforcers)]
		f := &demandFlow{demand: heavyDemand(rng)}
		e.Attach(f)
		live++
		hold := sim.Time(rng.ExpFloat64() * float64(200*time.Millisecond))
		eng.After(hold, func() {
			e.Detach(f)
			live--
		})
		eng.After(sim.Time(rng.ExpFloat64()*float64(200*time.Millisecond))/sim.Time(flows)+1, spawn)
	}
	// Seed the population quickly.
	for i := 0; i < flows; i++ {
		eng.After(sim.Time(i)*time.Microsecond, spawn)
	}

	var sum, count, overshoot float64
	var errSummary metrics.Summary
	// Sample error just BEFORE each control round fires: the limiter's
	// ticker and a same-period sampler would collide (and the limiter,
	// created first, runs first), so the sampler is phase-shifted to
	// period - 1% — the staleest possible grants.
	sample := func() {
		e := lim.EnforcementError()
		errSummary.Observe(e)
		sum += e
		count++
		if agg := lim.AggregateActual(); agg > quota && (agg-quota)/quota > overshoot {
			overshoot = (agg - quota) / quota
		}
	}
	var arm func()
	arm = func() {
		eng.After(period, func() {
			sample()
			arm()
		})
	}
	// Warm up for 1s before measuring so population build-up does not
	// dominate the error statistics.
	eng.After(time.Second+period-period/100, func() {
		sample()
		arm()
	})
	eng.RunUntil(horizon)
	ctl.Stop()

	res := e5Result{rounds: lim.Rounds}
	if count > 0 {
		res.meanErr = sum / count
	}
	res.p99Err = errSummary.Quantile(0.99)
	res.overshoot = overshoot
	return res
}

// heavyDemand draws a lognormal-ish per-flow demand around 100 Mbps.
func heavyDemand(rng *rand.Rand) float64 {
	d := 100e6 * (0.2 + rng.ExpFloat64())
	if d > 2e9 {
		d = 2e9
	}
	return d
}
