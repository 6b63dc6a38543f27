package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"declnet/internal/addr"
	"declnet/internal/permit"
	"declnet/internal/topo"
)

// Property: under ANY failure schedule, once a backend's host has been
// continuously unreachable for longer than the health-check detect window,
// the SIP must not serve from it — and as long as at least one backend has
// never failed, the SIP must keep serving. The schedules here are randomly
// generated fail/heal event sequences over every backend node; the ground
// truth is reconstructed from the schedule itself, independent of the
// monitor under test.

// nodeSchedule is the generated fail/heal history for one backend node.
// Times are sorted; entries alternate fail, heal, fail, ... starting from
// an initially-up node.
type nodeSchedule struct {
	node   topo.NodeID
	events []time.Duration
}

// downFor reports whether the node was continuously unreachable during
// the whole window [t-window, t].
func (ns nodeSchedule) downFor(t, window time.Duration) bool {
	// Index of the last event at or before t.
	i := sort.Search(len(ns.events), func(i int) bool { return ns.events[i] > t }) - 1
	if i < 0 {
		return false // no events yet: node has always been up
	}
	// Even index = fail, odd = heal.
	if i%2 != 0 {
		return false // currently up
	}
	return t-ns.events[i] >= window
}

// downAt reports whether the node is unreachable at time t.
func (ns nodeSchedule) downAt(t time.Duration) bool {
	i := sort.Search(len(ns.events), func(i int) bool { return ns.events[i] > t }) - 1
	return i >= 0 && i%2 == 0
}

// everFailedBy reports whether any fail event precedes t.
func (ns nodeSchedule) everFailedBy(t time.Duration) bool {
	return len(ns.events) > 0 && ns.events[0] <= t
}

// genSchedule draws up to maxFlaps fail/heal pairs at random times within
// the horizon. A trailing fail with no heal (node ends the run down) is
// deliberately possible.
func genSchedule(rng *rand.Rand, node topo.NodeID, horizon time.Duration) nodeSchedule {
	n := rng.Intn(4) * 2 // 0, 2, 4, or 6 events
	if rng.Intn(3) == 0 {
		n++ // odd count: ends down
	}
	events := make([]time.Duration, n)
	for i := range events {
		// Events live in [0.5s, horizon-1s] so probes bracket them.
		span := horizon - 1500*time.Millisecond
		events[i] = 500*time.Millisecond + time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })
	return nodeSchedule{node: node, events: events}
}

func TestPropertySIPNeverServesDownBackend(t *testing.T) {
	const (
		nBackends = 3
		horizon   = 10 * time.Second
	)
	policy := FaultPolicy{HealthInterval: 100 * time.Millisecond}
	// The monitor needs one sweep past the detect delay to pull a backend;
	// add two intervals of slack so probe phase never races the sweep phase.
	window := (DownAfter + 2) * policy.HealthInterval

	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c, w, _, pb, _ := fig1Cloud(t)
			m := c.EnableFaults(policy)

			client, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
			if err != nil {
				t.Fatal(err)
			}
			sip, err := c.Tenant("acme").RequestSIP(pb.Name)
			if err != nil {
				t.Fatal(err)
			}
			nodes := []topo.NodeID{
				topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1),
				topo.HostID(w.CloudB, w.RegionsB[0], "az2", 1),
				topo.HostID(w.CloudB, w.RegionsB[1], "az1", 1),
			}
			byEIP := make(map[EIP]int, nBackends)
			for i := 0; i < nBackends; i++ {
				be, err := c.Tenant("acme").RequestEIP(nodes[i])
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Tenant("acme").Bind(be, sip, 1); err != nil {
					t.Fatal(err)
				}
				byEIP[be] = i
			}
			if err := c.Tenant("acme").SetPermitList(sip, []permit.Entry{addr.NewPrefix(client, 32)}); err != nil {
				t.Fatal(err)
			}

			// Generate and apply the failure schedule, keeping one backend
			// permanently healthy so the liveness half of the property has
			// a witness on every seed.
			schedules := make([]nodeSchedule, nBackends)
			schedules[0] = nodeSchedule{node: nodes[0]}
			for i := 1; i < nBackends; i++ {
				schedules[i] = genSchedule(rng, nodes[i], horizon)
				for j, at := range schedules[i].events {
					node, fail := schedules[i].node, j%2 == 0
					simOf(c).Eng.Schedule(at, func() {
						if fail {
							simOf(c).Inj.FailNode(node)
						} else {
							simOf(c).Inj.RestoreNode(node)
						}
					})
				}
			}

			// Probes at times coprime with both the event grid and the
			// health interval, so ordering at equal timestamps never
			// decides the verdict.
			for at := 503 * time.Millisecond; at < horizon; at += 97 * time.Millisecond {
				at := at
				simOf(c).Eng.Schedule(at, func() {
					// Liveness only holds once the schedule is "settled":
					// every down backend has been down past the detect
					// window, so the monitor has pulled it. Inside the
					// window the SIP may still pick a just-failed backend
					// and the connect errors — that transient is the MTTR
					// gap E11 measures, not a property violation.
					settled := true
					for _, ns := range schedules {
						if ns.downAt(at) && !ns.downFor(at, window) {
							settled = false
						}
					}
					cn, err := c.Tenant("acme").Connect(client, sip, ConnectOpts{SizeBytes: 1e3})
					if err != nil {
						if settled {
							t.Errorf("t=%v: connect failed with all failures past the detect window: %v", at, err)
						}
						return
					}
					i, ok := byEIP[cn.DstEIP]
					if !ok {
						t.Errorf("t=%v: served from unknown endpoint %s", at, cn.DstEIP)
					} else if schedules[i].downFor(at, window) {
						t.Errorf("t=%v: served from backend %d, down since %v (window %v)",
							at, i, at-window, window)
					}
					cn.Close()
				})
			}
			simOf(c).Eng.RunUntil(horizon + time.Second)

			// Sanity: seeds that actually failed something must have driven
			// the monitor, or the property ran vacuously.
			anyFailed := false
			for _, ns := range schedules {
				if ns.everFailedBy(horizon) {
					anyFailed = true
				}
			}
			if anyFailed && m.Failovers == 0 {
				t.Fatalf("schedule contained failures but monitor recorded none")
			}
		})
	}
}
