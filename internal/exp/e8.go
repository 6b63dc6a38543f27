package exp

import (
	"fmt"

	"declnet/internal/addr"
	"declnet/internal/cloudapi"
	"declnet/internal/core"
	"declnet/internal/gateway"
	"declnet/internal/metrics"
	"declnet/internal/permit"
	"declnet/internal/topo"
	"declnet/internal/vnet"
)

// E8Migration tests the §5 claim that "any migration between clouds will
// become incredibly simple as the basic interface will be constant
// between clouds."
//
// It moves the analytics tier (two workers plus their connectivity to the
// database service) from cloud A to cloud B under both models and counts
// what the tenant had to do:
//
//   - baseline: rebuild the tier with the destination cloud's facade —
//     new VNet, subnets, NSGs, hub connection, routes — in the
//     destination's own vocabulary (the concepts column), then update the
//     database-side NSG trust.
//   - declarative: release the old EIPs, request new ones at cloud B,
//     rebind, and refresh permit lists — the same five verbs.
func E8Migration(seed int64) (*metrics.Table, error) {
	// ---- Baseline migration ---------------------------------------------
	base, err := BuildBaselineFig1()
	if err != nil {
		return nil, err
	}
	before := base.Env.Ledger.Snapshot()
	conceptsBefore := conceptSet(base.Env.Ledger.Concepts())

	// Rebuild the analytics tier on a cloud the tenant has never used —
	// a gcp-like provider with its own vocabulary (global networks,
	// tag-selected firewall rules).
	az := base.Azure
	gcp := cloudapi.NewGCP(base.Env, "c-proj")
	vNew, err := gcp.CreateNetwork("net-analytics-c", "10.6.0.0/16", false)
	if err != nil {
		return nil, err
	}
	if err := gcp.CreateSubnetwork("net-analytics-c", "work", "c-east1", "10.6.1.0/24"); err != nil {
		return nil, err
	}
	all := addr.MustParsePrefix("0.0.0.0/0")
	tenNet := addr.MustParsePrefix("10.0.0.0/8")
	if err := gcp.CreateFirewallRule("net-analytics-c", "allow-spark", "spark",
		vnet.SGRule{Proto: vnet.TCP, PortFrom: 7077, PortTo: 7077, Source: tenNet}, true); err != nil {
		return nil, err
	}
	if err := gcp.CreateFirewallRule("net-analytics-c", "allow-egress", "spark",
		vnet.SGRule{Source: all}, false); err != nil {
		return nil, err
	}
	for i := 1; i <= 2; i++ {
		if _, err := gcp.CreateInstance("net-analytics-c", fmt.Sprintf("spark-c-%d", i), "work", "spark"); err != nil {
			return nil, err
		}
	}
	// Attach the new network to the existing hub and route to the db.
	if _, err := az.ConnectVNetToHub(base.TGWB, vNew); err != nil {
		return nil, err
	}
	if err := gcp.CreateRoute("net-analytics-c", "work", "10.3.0.0/16", vnet.Target{Kind: vnet.TTGW, ID: base.TGWB.ID}); err != nil {
		return nil, err
	}
	// The database NSG trusted 10.0.0.0/16; the tier now lives in
	// 10.6.0.0/16, so the trust rule must change too (CIDR coupling —
	// exactly the fragility §3 complains about).
	if err := az.AddSecurityRule("nsg-db", 120, "Inbound", vnet.Allow, vnet.TCP, 5432, 5432, "10.6.0.0/16"); err != nil {
		return nil, err
	}
	if err := az.AssociateNSGToSubnet(base.DB, "nsg-db", "data"); err != nil {
		return nil, err
	}
	if err := az.UpdateNSGBackedSecurityGroup(base.DB, "nsg-db"); err != nil {
		return nil, err
	}
	// The rebuilt tier must actually reach the database.
	inst, _ := vNew.Instance("spark-c-1")
	if v := base.Env.Fabric.Evaluate(
		gateway.Source{Kind: gateway.FromInstance, VPCID: vNew.ID, InstanceID: inst.ID},
		vnet.Packet{Src: inst.PrivateIP, Dst: base.DB1.PrivateIP, Proto: vnet.TCP, DstPort: 5432}); !v.Delivered {
		return nil, fmt.Errorf("exp: migrated baseline tier cannot reach db: %v", v)
	}
	baseDiff := base.Env.Ledger.Since(before)
	conceptsAfter := conceptSet(base.Env.Ledger.Concepts())
	newConcepts := 0
	for c := range conceptsAfter {
		if !conceptsBefore[c] {
			newConcepts++
		}
	}

	// ---- Declarative migration ------------------------------------------
	decl, err := BuildDeclarativeFig1(seed, 2)
	if err != nil {
		return nil, err
	}
	tn := decl.Cloud.Tenant(Tenant)
	calls := 0
	// Release the two analytics EIPs at cloud A.
	for _, e := range []addr.IP{decl.Spark1, decl.Spark2} {
		if err := tn.ReleaseEIP(e); err != nil {
			return nil, err
		}
		calls++
	}
	// Request replacements at cloud B (same verb, different provider).
	w := decl.World
	n1, err := tn.RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 2))
	if err != nil {
		return nil, err
	}
	calls++
	n2, err := tn.RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az2", 2))
	if err != nil {
		return nil, err
	}
	calls++
	// Refresh the permit lists that referenced the old workers.
	refresh := func(dst addr.IP, srcs ...addr.IP) error {
		calls++
		entries := make([]permit.Entry, len(srcs))
		for i, s := range srcs {
			entries[i] = addr.NewPrefix(s, 32)
		}
		return tn.SetPermitList(dst, entries)
	}
	if err := refresh(decl.DBService, n1, n2, decl.Alerts); err != nil {
		return nil, err
	}
	if err := refresh(decl.DB1, n1, n2, decl.Alerts); err != nil {
		return nil, err
	}
	if err := refresh(decl.DB2, n1, n2, decl.Alerts); err != nil {
		return nil, err
	}
	if err := refresh(decl.Logs, n1, n2, decl.WebSrv); err != nil {
		return nil, err
	}
	if err := refresh(decl.Alerts, n1, n2); err != nil {
		return nil, err
	}
	// Permit the workers to reach each other.
	if err := refresh(n1, n2, decl.WebSrv); err != nil {
		return nil, err
	}
	if err := refresh(n2, n1, decl.WebSrv); err != nil {
		return nil, err
	}
	// Move the QoS grant to the new region.
	if err := tn.SetQoS(decl.ProvB.Name, w.RegionsB[0], 10*topo.Gbps); err != nil {
		return nil, err
	}
	calls++
	// Verify the moved tier still reaches the database service.
	conn, err := tn.Connect(n1, decl.DBService, core.ConnectOpts{SizeBytes: -1})
	if err != nil {
		return nil, fmt.Errorf("exp: migrated tier cannot reach db: %w", err)
	}
	conn.Close()

	t := &metrics.Table{
		Title:   "E8: migrating the analytics tier cloud A -> cloud B (§5)",
		Columns: []string{"metric", "baseline", "declarative"},
	}
	t.AddRow("provisioning steps", baseDiff.StepsTaken, calls)
	t.AddRow("resources touched", baseDiff.ResourcesChanged, 0)
	t.AddRow("parameters changed", baseDiff.ParamsChanged, 0)
	t.AddRow("new concepts learned", newConcepts, 0)
	t.Notes = append(t.Notes,
		"baseline rebuild uses the destination cloud's own vocabulary and re-couples CIDR trust rules",
		"declarative migration reuses the same five verbs against a different provider")
	return t, nil
}

func conceptSet(cs []string) map[string]bool {
	out := make(map[string]bool, len(cs))
	for _, c := range cs {
		out[c] = true
	}
	return out
}
