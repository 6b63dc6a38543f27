package declnet

import (
	"math/rand"
	"testing"

	"declnet/internal/addr"
	"declnet/internal/lb"
	"declnet/internal/permit"
	"declnet/internal/routing"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// SIP balancing algorithm, greylist shedding in front of the permit
// engine, and provider-side address aggregation. Each reports a domain
// quality metric alongside cost so `-bench Ablation` shows what every
// alternative buys.

// BenchmarkAblationLBPolicy compares smooth WRR against
// power-of-two-choices under heterogeneous connection lifetimes, where
// WRR's arrival-order fairness drifts from instantaneous load balance.
func BenchmarkAblationLBPolicy(b *testing.B) {
	run := func(b *testing.B, pick func(*lb.Balancer, func(int) int) (*lb.Backend, error)) {
		bal := lb.New(addr.MustParseIP("104.255.0.1"))
		for i := 0; i < 16; i++ {
			bal.Bind(addr.MustParseIP("104.0.0.1")+addr.IP(i), 1)
		}
		rng := rand.New(rand.NewSource(1))
		rnd := func(n int) int { return rng.Intn(n) }
		// Churning connection pool: long-lived and short-lived mixed.
		var pool []*lb.Backend
		maxImbalance := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			be, err := pick(bal, rnd)
			if err != nil {
				b.Fatal(err)
			}
			pool = append(pool, be)
			// Short-lived connections release quickly; every 10th lives on.
			if len(pool) > 64 {
				idx := rng.Intn(len(pool))
				bal.Release(pool[idx])
				pool = append(pool[:idx], pool[idx+1:]...)
			}
			if i%64 == 0 {
				min, max := 1<<30, 0
				for _, backend := range bal.Backends() {
					if a := backend.Active(); a < min {
						min = a
					} else if a > max {
						max = a
					}
				}
				if max-min > maxImbalance {
					maxImbalance = max - min
				}
			}
		}
		b.ReportMetric(float64(maxImbalance), "max-imbalance")
	}
	b.Run("smooth-wrr", func(b *testing.B) {
		run(b, func(bal *lb.Balancer, _ func(int) int) (*lb.Backend, error) {
			return bal.Pick()
		})
	})
	b.Run("p2c", func(b *testing.B) {
		run(b, func(bal *lb.Balancer, rnd func(int) int) (*lb.Backend, error) {
			return bal.PickP2C(rnd)
		})
	})
}

// BenchmarkAblationShield measures admission cost under a volumetric
// attack with and without greylist shedding in front of the permit
// engine.
func BenchmarkAblationShield(b *testing.B) {
	setup := func() (*permit.Engine, addr.IP) {
		e := permit.NewEngine()
		dst := addr.MustParseIP("104.0.0.1")
		e.Set(dst, []permit.Entry{addr.NewPrefix(addr.MustParseIP("100.64.0.1"), 32)})
		return e, dst
	}
	// 256 attacking sources cycling; 1 legitimate.
	attacker := func(i int) addr.IP {
		return addr.MustParseIP("203.0.113.0") + addr.IP(i%256)
	}
	b.Run("engine-only", func(b *testing.B) {
		e, dst := setup()
		for i := 0; i < b.N; i++ {
			e.Check(attacker(i), dst)
		}
	})
	b.Run("with-shield", func(b *testing.B) {
		e, dst := setup()
		s := permit.NewShield(e, 10)
		for i := 0; i < b.N; i++ {
			s.Check(attacker(i), dst)
		}
		b.ReportMetric(float64(s.GreylistSize()), "greylisted")
	})
}

// BenchmarkAblationAggregation measures the provider-side aggregation
// pass on 10k dense /32s and reports the compaction it buys — the E3
// design choice in isolation.
func BenchmarkAblationAggregation(b *testing.B) {
	const n = 10000
	routes := make([]routing.Route, 0, n)
	pool := addr.NewHostPool(addr.MustParsePrefix("104.0.0.0/16"), 0)
	for i := 0; i < n; i++ {
		ip, err := pool.Allocate()
		if err != nil {
			b.Fatal(err)
		}
		zone := "zone-a"
		if i >= n/2 {
			zone = "zone-b"
		}
		routes = append(routes, routing.Route{
			Prefix: addr.NewPrefix(ip, 32),
			Hop:    routing.NextHop{ID: zone},
		})
	}
	var out []routing.Route
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = routing.Aggregate(routes)
	}
	b.ReportMetric(float64(n)/float64(len(out)), "compaction-x")
}
