// Mutation-plane benchmark: the scoped-epoch counterpart to
// BenchmarkConnect. readonly is the pure warm-connect plane; mixed
// interleaves ~5% topology mutations — scoped link failures in regions
// the measured path never enters, plus a periodic batched heal — into
// the same connect stream. Under the old global epoch every one of
// those mutations flushed the whole path cache and the mixed plane
// degenerated to cold connects; under scoped epochs the off-path
// failures leave the warm path valid and only the (rare, batched) heals
// pay a wholesale flush. The mixed/readonly ns-per-op ratio and the
// sustained mutations/sec are the numbers to compare in a developer's
// own A/B (`make bench`).
package declnet

import (
	"testing"

	"declnet/internal/core"
	"declnet/internal/exp"
	"declnet/internal/topo"
)

// mutateChurnSet is how many off-path links the mixed workload cycles
// through, and mutateHealEvery is the period (in ops) of the batched
// heal that restores them.
const (
	mutateChurnSet  = 8
	mutateHealEvery = 500
)

func BenchmarkMutatePlane(b *testing.B) {
	setup := func(b *testing.B) (*exp.DeclarativeFig1, []*topo.Link) {
		b.Helper()
		d, err := exp.BuildDeclarativeFig1(1, 50)
		if err != nil {
			b.Fatal(err)
		}
		// Prime every cache and learn which epoch scopes the measured
		// path traverses.
		conn, err := d.Cloud.Tenant(exp.Tenant).Connect(d.Spark1, d.DBService, core.ConnectOpts{SizeBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		onPath := make(map[topo.Scope]bool)
		for _, l := range conn.Path {
			onPath[l.Scope()] = true
		}
		conn.Close()
		// Churn targets: region-scoped links in regions the path never
		// enters, so their failures are invisible to the warm entry.
		var offPath []*topo.Link
		for _, l := range d.Cloud.G.Links() {
			if s := l.Scope(); s != topo.CrossCut && !onPath[s] {
				offPath = append(offPath, l)
			}
		}
		if len(offPath) < mutateChurnSet {
			b.Fatalf("only %d off-path scoped links, want >= %d", len(offPath), mutateChurnSet)
		}
		return d, offPath[:mutateChurnSet]
	}

	connect := func(b *testing.B, d *exp.DeclarativeFig1) {
		conn, err := d.Cloud.Tenant(exp.Tenant).Connect(d.Spark1, d.DBService, core.ConnectOpts{SizeBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}

	b.Run("readonly", func(b *testing.B) {
		d, _ := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			connect(b, d)
		}
	})

	b.Run("mixed", func(b *testing.B) {
		d, churn := setup(b)
		g := d.Cloud.G
		mutations := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			switch {
			case i%mutateHealEvery == mutateHealEvery-1:
				// Batched heal: N restores, one coalesced wholesale flush.
				err := g.Batch(func() error {
					for _, l := range churn {
						if err := g.SetLinkUp(l.ID, true); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				mutations += len(churn)
			case i%20 == 19:
				// Scoped degradation in a region the path never crosses:
				// bumps that scope's epoch, leaves the warm entry valid.
				l := churn[(i/20)%len(churn)]
				if err := g.SetLinkUp(l.ID, false); err != nil {
					b.Fatal(err)
				}
				mutations++
			default:
				connect(b, d)
			}
		}
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 && mutations > 0 {
			b.ReportMetric(float64(mutations)/secs, "mutations/sec")
		}
	})
}
