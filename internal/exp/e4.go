package exp

import (
	"fmt"
	"time"

	"declnet/internal/addr"
	"declnet/internal/metrics"
	"declnet/internal/permit"
	"declnet/internal/sim"
	"declnet/internal/workload"
)

// E4PermitScale answers §6(i)'s second question: "Does a (dynamic) shared
// permit-list between tenants and cloud providers scale?"
//
// For each deployment size it builds a Zipf communication matrix, plays
// instance churn against a replicated permit engine (control plane plus
// distributed enforcement points behind a propagation lag), and reports:
//
//   - state size: endpoints guarded and total permit entries,
//   - update load: permit-plane updates issued by the churn,
//   - lookup cost: wall-clock throughput of the enforcement check,
//   - staleness: revoked-but-still-admitted incidents during the
//     propagation window (the consistency risk of a shared dynamic list).
func E4PermitScale(scales []int, fanout int, lag sim.Time, seed int64) (*metrics.Table, error) {
	if fanout < 1 {
		fanout = 8
	}
	t := &metrics.Table{
		Title: "E4: permit-list scalability under churn (§6(i))",
		Columns: []string{"endpoints", "entries", "updates", "lookups/us",
			"stale admits", "lag"},
	}
	results, err := sweepCells(len(scales), func(cell int) (e4Result, error) {
		return e4Run(scales[cell], fanout, lag, seed)
	})
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		t.AddRow(res.endpoints, res.entries, res.updates,
			fmt.Sprintf("%.1f", res.lookupsPerMicro), res.staleAdmits, lag.String())
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("fanout=%d permitted sources per endpoint (Zipf-skewed matrix)", fanout),
		"stale admits = checks that passed at a replica after the origin revoked the source")
	return t, nil
}

type e4Result struct {
	endpoints       int
	entries         int
	updates         uint64
	lookupsPerMicro float64
	staleAdmits     int
}

func e4Run(n, fanout int, lag sim.Time, seed int64) (e4Result, error) {
	eng := sim.New(seed)
	rs := permit.NewReplicaSet(func(d time.Duration, fn func()) { eng.After(d, fn) }, 4, lag)

	// Endpoint i gets EIP base+i; the matrix permits fanout sources each.
	base := addr.MustParseIP("100.64.0.0")
	eipOf := func(i int) addr.IP { return base + addr.IP(i) }
	pairs := workload.CommMatrix(seed, n, fanout, 1.3)
	for _, p := range pairs {
		rs.Permit(eipOf(p.Dst), addr.NewPrefix(eipOf(p.Src), 32))
	}
	eng.Run() // drain propagation

	// Churn: 10% of endpoints revoke one source and admit another, with
	// admission checks racing the propagation window. Each revocation is
	// probed at a replica halfway through the lag window: those probes
	// are the stale admits.
	staleAdmits := 0
	churn := n / 10
	if churn < 1 {
		churn = 1
	}
	for i := 0; i < churn; i++ {
		dst := eipOf(i)
		victim := pairs[i%len(pairs)]
		src := eipOf(victim.Src)
		rs.Revoke(dst, addr.NewPrefix(src, 32))
		probeAt := eng.Now() + lag/2
		eng.Schedule(probeAt, func() {
			if rs.Check(0, src, dst) {
				staleAdmits++
			}
		})
		eng.RunUntil(eng.Now() + lag + time.Millisecond)
	}

	// Lookup throughput: wall-clock over a mixed hit/miss probe set.
	origin := rs.Origin()
	const probes = 200000
	start := time.Now()
	for i := 0; i < probes; i++ {
		origin.Check(eipOf(i%n)+1, eipOf((i*7)%n))
	}
	elapsed := time.Since(start)
	perMicro := float64(probes) / float64(elapsed.Microseconds())

	return e4Result{
		endpoints:       origin.Endpoints(),
		entries:         origin.TotalEntries(),
		updates:         origin.Updates.Load(),
		lookupsPerMicro: perMicro,
		staleAdmits:     staleAdmits,
	}, nil
}
