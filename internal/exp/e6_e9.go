package exp

import (
	"fmt"
	"time"

	"declnet/internal/core"
	"declnet/internal/metrics"
	"declnet/internal/netsim"
	"declnet/internal/qos"
	"declnet/internal/sim"
	"declnet/internal/topo"
)

// E6QoSPotato answers §6(ii): does the declarative model's cold-potato +
// egress-guarantee combination approximate a dedicated connection?
//
// Over the Fig-1 world it measures, for the inter-cloud pair (analytics in
// cloud A <-> database in cloud B) and the cloud-to-on-prem pair, under
// three transports:
//
//   - dedicated: the baseline's provisioned DX/ER circuits via the IXP,
//   - cold: declarative cold-potato over the provider backbone,
//   - hot: declarative hot-potato over the public internet,
//
// the RTT distribution, jitter, delivery rate, and the completion time of
// a 1 GB bulk transfer.
func E6QoSPotato(probes int, seed int64) (*metrics.Table, error) {
	if probes <= 0 {
		probes = 500
	}
	w := topo.BuildFig1(2)
	eng := sim.New(seed)
	net := netsim.New(w.Graph, eng)

	src := topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)
	dstCloud := topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1)
	dstOnPrem := topo.NodeID("onprem/hq/host1")

	t := &metrics.Table{
		Title: "E6: dedicated circuits vs potato routing (§6(ii))",
		Columns: []string{"pair", "transport", "rtt p50", "rtt p99",
			"jitter p99-p50", "delivery %", "1GB FCT"},
	}
	pairs := []struct {
		name string
		dst  topo.NodeID
	}{
		{"cloudA->cloudB", dstCloud},
		{"cloudA->onprem", dstOnPrem},
	}
	for _, pair := range pairs {
		for _, policy := range []qos.PotatoPolicy{qos.Dedicated, qos.ColdPotato, qos.HotPotato} {
			row, err := e6Measure(net, w.Graph, policy, src, pair.dst, probes)
			if err != nil {
				return nil, err
			}
			t.AddRow(pair.name, policy.String(),
				row.p50.Round(10*time.Microsecond).String(),
				row.p99.Round(10*time.Microsecond).String(),
				(row.p99 - row.p50).Round(10*time.Microsecond).String(),
				fmt.Sprintf("%.2f", row.delivery*100),
				row.fct.Round(time.Millisecond).String())
		}
	}
	t.Notes = append(t.Notes,
		"dedicated = baseline DX/ER circuits via the exchange; cold/hot = declarative potato profiles",
		"the paper conjectures cold-potato + egress guarantees approximates dedicated (§4, §6(ii))")
	t.AddNotef("solver cost: %d recomputes, %d flows touched, %d links touched",
		net.Recomputes, net.FlowsTouched, net.LinksTouched)
	return t, nil
}

type e6Row struct {
	p50, p99 time.Duration
	delivery float64
	fct      time.Duration
}

func e6Measure(net *netsim.Network, g *topo.Graph, policy qos.PotatoPolicy, src, dst topo.NodeID, probes int) (e6Row, error) {
	path, err := qos.PathFor(g, policy, src, dst)
	if err != nil {
		return e6Row{}, err
	}
	var rtts metrics.Summary
	delivered := 0
	for i := 0; i < probes; i++ {
		rtts.Observe(float64(net.RTT(path)))
		if net.Delivered(path) {
			delivered++
		}
	}
	// Bulk transfer: 1 GB alone on the path (relative FCT across
	// transports is the comparison; contention is E5's subject).
	var fct time.Duration
	if _, err := net.StartFlow(&netsim.Flow{
		Path: path, Size: 1e9,
		OnDone: func(d time.Duration) { fct = d },
	}); err != nil {
		return e6Row{}, err
	}
	net.Eng.Run()
	return e6Row{
		p50:      time.Duration(rtts.Quantile(0.5)),
		p99:      time.Duration(rtts.Quantile(0.99)),
		delivery: float64(delivered) / float64(probes),
		fct:      fct,
	}, nil
}

// E9Potato isolates the hot-vs-cold comparison of §4's QoS section across
// client locations: every region of both clouds probing a server in cloud
// B's east region, under both potato profiles, through the full
// declarative data path (permit admission included).
func E9Potato(probes int, seed int64) (*metrics.Table, error) {
	if probes <= 0 {
		probes = 300
	}
	d, err := BuildDeclarativeFig1(seed, 2)
	if err != nil {
		return nil, err
	}
	c := d.Cloud
	w := d.World

	t := &metrics.Table{
		Title:   "E9: hot vs cold potato by client location (§4 QoS)",
		Columns: []string{"client region", "policy", "rtt p50", "rtt p99", "delivery %"},
	}
	clients := []struct {
		prov   *core.Provider
		region string
		node   topo.NodeID
	}{
		{d.ProvA, w.RegionsA[0], topo.HostID(w.CloudA, w.RegionsA[0], "az2", 2)},
		{d.ProvA, w.RegionsA[1], topo.HostID(w.CloudA, w.RegionsA[1], "az1", 2)},
		{d.ProvB, w.RegionsB[1], topo.HostID(w.CloudB, w.RegionsB[1], "az1", 2)},
	}
	for _, cl := range clients {
		eip, err := d.Cloud.Tenant(Tenant).RequestEIP(cl.node)
		if err != nil {
			return nil, err
		}
		if err := d.Cloud.Tenant(Tenant).Permit(d.DBService, exactEntry(eip)); err != nil {
			return nil, err
		}
		for _, policy := range []qos.PotatoPolicy{qos.HotPotato, qos.ColdPotato} {
			if err := d.Cloud.Tenant(Tenant).SetPotato(cl.prov.Name, policy); err != nil {
				return nil, err
			}
			var rtts metrics.Summary
			delivered := 0
			for i := 0; i < probes; i++ {
				rtt, ok, err := c.Tenant(Tenant).Probe(eip, d.DBService)
				if err != nil {
					return nil, err
				}
				rtts.Observe(float64(rtt))
				if ok {
					delivered++
				}
			}
			t.AddRow(cl.prov.Name+"/"+cl.region, policy.String(),
				time.Duration(rtts.Quantile(0.5)).Round(10*time.Microsecond).String(),
				time.Duration(rtts.Quantile(0.99)).Round(10*time.Microsecond).String(),
				fmt.Sprintf("%.2f", float64(delivered)/float64(probes)*100))
		}
	}
	t.Notes = append(t.Notes,
		"probes traverse the full declarative data path: permit admission, SIP balancing, potato path")
	t.AddNotef("solver cost: %d recomputes, %d flows touched, %d links touched",
		c.Net.Recomputes, c.Net.FlowsTouched, c.Net.LinksTouched)
	return t, nil
}
