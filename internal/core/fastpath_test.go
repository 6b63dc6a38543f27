package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"declnet/internal/addr"
	. "declnet/internal/core"
	"declnet/internal/fault"
	"declnet/internal/permit"
	"declnet/internal/qos"
	"declnet/internal/simplane"
	"declnet/internal/topo"
)

// TestPropertyPathCacheParity replays random fault/heal/connect schedules
// and asserts, after every step, that the epoch-keyed path cache answers
// byte-identically to an uncached Dijkstra over the live graph: the same
// link-ID sequence on success, the same error string on failure (negative
// caching included). The schedule mixes single-link and single-node
// faults, whole-region faults (many link transitions in one step), and
// batched permit churn through ApplyBatch, which must never touch the
// path cache. Connects ride along so the connect path's own router
// lookups run under the same schedule. CI runs this under -race.
func TestPropertyPathCacheParity(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c, w, _, pb, _ := fig1Cloud(t)
			inj := fault.NewInjector(simOf(c).Eng, c.G, simOf(c).Net)

			// Connect traffic: one client in cloud A, a SIP with two
			// backends in cloud B.
			client, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
			if err != nil {
				t.Fatal(err)
			}
			sip, err := c.Tenant("acme").RequestSIP(pb.Name)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []topo.NodeID{
				topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1),
				topo.HostID(w.CloudB, w.RegionsB[0], "az2", 1),
			} {
				be, err := c.Tenant("acme").RequestEIP(n)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Tenant("acme").Bind(be, sip, 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Tenant("acme").SetPermitList(sip, []permit.Entry{addr.NewPrefix(client, 32)}); err != nil {
				t.Fatal(err)
			}

			// Fault targets: every link pair, plus fabric/core nodes (never
			// the endpoint hosts, so connects stay meaningful on most steps).
			var pairs []string
			for _, l := range c.G.Links() {
				if strings.HasSuffix(l.ID, ":fwd") {
					pairs = append(pairs, strings.TrimSuffix(l.ID, ":fwd"))
				}
			}
			var mids []topo.NodeID
			for _, n := range c.G.Nodes() {
				if n.Kind == topo.ZoneFabric || n.Kind == topo.RegionRouter {
					mids = append(mids, n.ID)
				}
			}
			if len(pairs) == 0 || len(mids) == 0 {
				t.Fatal("no fault targets in Fig1 graph")
			}
			var regions [][2]string
			for _, r := range w.RegionsA {
				regions = append(regions, [2]string{w.CloudA, r})
			}
			for _, r := range w.RegionsB {
				regions = append(regions, [2]string{w.CloudB, r})
			}

			// Query set: cross-cloud, intra-cloud, self, and an unknown node
			// (the unknown-destination error is negatively cached too).
			hostA := topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)
			hostA2 := topo.HostID(w.CloudA, w.RegionsA[1], "az1", 1)
			hostB := topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1)
			hostB2 := topo.HostID(w.CloudB, w.RegionsB[1], "az2", 1)
			queries := []struct{ src, dst topo.NodeID }{
				{hostA, hostB}, {hostB, hostA}, {hostA, hostA2},
				{hostB2, hostA2}, {hostA, hostA}, {hostA, "ghost"},
			}
			policies := []qos.PotatoPolicy{qos.HotPotato, qos.ColdPotato}

			check := func(step int) {
				t.Helper()
				for _, p := range policies {
					for _, q := range queries {
						got, gerr := c.Router().PathFor(p, q.src, q.dst)
						want, werr := qos.PathFor(c.G, p, q.src, q.dst)
						if (gerr == nil) != (werr == nil) ||
							(gerr != nil && gerr.Error() != werr.Error()) {
							t.Fatalf("step %d %v %s->%s: cached err %v, uncached err %v",
								step, p, q.src, q.dst, gerr, werr)
						}
						if len(got) != len(want) {
							t.Fatalf("step %d %v %s->%s: cached %d hops, uncached %d",
								step, p, q.src, q.dst, len(got), len(want))
						}
						for i := range got {
							if got[i].ID != want[i].ID {
								t.Fatalf("step %d %v %s->%s hop %d: cached %s, uncached %s",
									step, p, q.src, q.dst, i, got[i].ID, want[i].ID)
							}
						}
					}
				}
			}

			check(0)
			const steps = 50
			for i := 1; i <= steps; i++ {
				// Restore can fail when the target is not currently faulted;
				// that is part of the random schedule, not an error.
				switch rng.Intn(8) {
				case 0, 1:
					inj.FailLink(pairs[rng.Intn(len(pairs))])
				case 2, 3:
					inj.RestoreLink(pairs[rng.Intn(len(pairs))])
				case 4:
					inj.FailNode(mids[rng.Intn(len(mids))])
				case 5:
					inj.RestoreNode(mids[rng.Intn(len(mids))])
				case 6:
					// Whole-region faults: many link transitions in one
					// step, one flush at the next lookup.
					reg := regions[rng.Intn(len(regions))]
					inj.FailRegion(reg[0], reg[1])
				case 7:
					reg := regions[rng.Intn(len(regions))]
					inj.RestoreRegion(reg[0], reg[1])
				}
				// Batched permit churn on roughly a third of the steps: a
				// batch's permit ops must never touch the path cache.
				if rng.Intn(3) == 0 {
					entry := addr.NewPrefix(addr.IP(0x0a000000+uint32(i)), 32)
					if _, err := c.ApplyBatch("acme", []BatchOp{
						{Op: "permit", Target: sip.String(), Entries: []permit.Entry{entry}},
						{Op: "revoke", Target: sip.String(), Entries: []permit.Entry{entry}},
					}); err != nil {
						t.Fatalf("step %d: batched permit churn: %v", i, err)
					}
				}
				if cn, err := simOf(c).Tenant("acme").Connect(client, sip, simplane.ConnectOpts{SizeBytes: 1e3}); err == nil {
					cn.Close()
				}
				check(i)
			}
			if c.Router().Hits() == 0 {
				t.Error("parity run never hit the cache")
			}
			if c.Router().Flushes() == 0 {
				t.Error("parity run never flushed the cache despite restores")
			}
		})
	}
}

// TestAdmissionFollowsPermitRevoke pins admission's freshness under
// concurrency: while other goroutines probe the same (src, dst) pair
// without pause, once a revoke has returned the source's next Probe is
// denied, and once a permit has returned it is admitted — no verdict
// computed against an older list may outlive the mutation. Run under
// -race.
func TestAdmissionFollowsPermitRevoke(t *testing.T) {
	c, w, _, _, _ := fig1Cloud(t)
	src, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	if err != nil {
		t.Fatal(err)
	}
	other, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 2))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	if err != nil {
		t.Fatal(err)
	}
	// other stays permitted throughout, so dst's list never empties.
	if err := c.Tenant("acme").SetPermitList(dst, []permit.Entry{addr.NewPrefix(other, 32)}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Tenant("acme").Probe(src, dst)
				if !c.Admitted(other, dst) {
					t.Error("a source permitted throughout was denied")
					return
				}
			}
		}()
	}
	entry := addr.NewPrefix(src, 32)
	for i := 0; i < 200; i++ {
		if err := c.Tenant("acme").Permit(dst, entry); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Tenant("acme").Probe(src, dst); err != nil {
			t.Fatalf("round %d: probe after permit returned: %v", i, err)
		}
		if err := c.Tenant("acme").Revoke(dst, entry); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Tenant("acme").Probe(src, dst); err == nil || !strings.Contains(err.Error(), "not permitted") {
			t.Fatalf("round %d: probe after revoke returned: err = %v, want a permit denial", i, err)
		}
	}
}
