package exp

import (
	"fmt"

	"declnet/internal/addr"
	"declnet/internal/app"
	"declnet/internal/core"
	"declnet/internal/gateway"
	"declnet/internal/metrics"
	"declnet/internal/permit"
	"declnet/internal/topo"
	"declnet/internal/vnet"
	"declnet/internal/workload"
)

// exactEntry permits a single EIP.
func exactEntry(e core.EIP) permit.Entry { return addr.NewPrefix(e, 32) }

// E7Security answers §6(iii): does network-layer permit-list enforcement
// plus API-level access control provide security on par with today's
// private networks, ACLs, and DPI firewalls?
//
// It builds the same backend service (an "orders" API on the database
// tier) under both models, with the same API gateway in front, and drives
// the attack suite of package workload at it. For every attack category
// the table reports where each model stopped it — network layer,
// application layer, or not at all.
func E7Security(perKind int, seed int64) (*metrics.Table, error) {
	suite := workload.AttackSuite(seed, perKind)

	base, err := BuildBaselineFig1()
	if err != nil {
		return nil, err
	}
	if v := base.SparkToDB(); !v.Delivered {
		return nil, fmt.Errorf("exp: baseline not functional: %v", v)
	}
	decl, err := BuildDeclarativeFig1(seed, 2)
	if err != nil {
		return nil, err
	}
	// A compromised-but-network-permitted machine: in the baseline it is
	// a bastion inside the analytics VPC (inside the NSG's trusted
	// 10.0.0.0/16); in the declarative model it is an EIP that is NOT on
	// the database's permit list (permit lists name endpoints, not
	// CIDRs, so the bastion never got permitted).
	bastion, err := base.AWS.RunInstance(base.Analytics, "bastion-1", "pub", "spark")
	if err != nil {
		return nil, err
	}
	bastionEIP, err := decl.Cloud.Tenant(Tenant).RequestEIP(topo.HostID(decl.World.CloudA, decl.World.RegionsA[0], "az2", 2))
	if err != nil {
		return nil, err
	}

	// Both models front the database with the same service-centric API
	// gateway (§4 assumption 1).
	newGateway := func() (*app.Gateway, string, string) {
		svc := app.NewService("orders",
			app.Operation{Name: "get_order", Scope: "read", Schema: []string{"id"}},
			app.Operation{Name: "admin_dump", Scope: "admin", Schema: nil},
		)
		g := app.NewGateway(svc)
		readTok := g.IssueToken("spark", "read")
		lowTok := g.IssueToken("intern", "read") // stolen low-privilege credential
		return g, readTok, lowTok
	}
	gwBase, readB, lowB := newGateway()
	gwDecl, readD, lowD := newGateway()

	type tally struct{ network, application, leaked int }
	results := map[workload.AttackKind]*struct{ base, decl tally }{}
	for _, k := range workload.AllAttackKinds() {
		results[k] = &struct{ base, decl tally }{}
	}

	for _, a := range suite {
		// ---- Baseline adaptation ----------------------------------------
		bres := runBaselineAttack(base, gwBase, readB, lowB, bastion, a)
		// ---- Declarative adaptation ---------------------------------------
		dres := runDeclarativeAttack(decl, gwDecl, readD, lowD, bastionEIP, a)
		r := results[a.Kind]
		switch bres {
		case "network":
			r.base.network++
		case "application":
			r.base.application++
		default:
			r.base.leaked++
		}
		switch dres {
		case "network":
			r.decl.network++
		case "application":
			r.decl.application++
		default:
			r.decl.leaked++
		}
	}

	t := &metrics.Table{
		Title: "E7: attack suite vs both security models (§6(iii))",
		Columns: []string{"attack", "n", "baseline blocked@net", "baseline blocked@app",
			"baseline leaked", "decl blocked@net", "decl blocked@app", "decl leaked"},
	}
	for _, k := range workload.AllAttackKinds() {
		r := results[k]
		t.AddRow(k.String(), perKind,
			r.base.network, r.base.application, r.base.leaked,
			r.decl.network, r.decl.application, r.decl.leaked)
	}
	t.Notes = append(t.Notes,
		"baseline = VPC isolation + SG/NSG + NACL + DPI firewall + API gateway",
		"declarative = default-off permit lists + the same API gateway (no DPI, per §4)",
		"lateral movement: baseline CIDR trust admits the compromised bastion; per-EIP permit lists do not")
	return t, nil
}

// runBaselineAttack pushes one attack at the baseline's database service.
// Returns "network", "application", or "leaked".
func runBaselineAttack(b *BaselineFig1, gw *app.Gateway, readTok, lowTok string, bastion *vnet.Instance, a workload.Attack) string {
	dstPort := a.DstPort
	if dstPort == 0 {
		dstPort = 5432
	}
	var verdict vnet.Verdict
	switch {
	case a.SrcExternal:
		// From the internet toward the database's (private) address: the
		// db has no public IP, so this probes an arbitrary guess at it.
		verdict = b.Env.Fabric.Evaluate(gateway.Source{Kind: gateway.FromInternet},
			vnet.Packet{Src: addr.MustParseIP("203.0.113.66"), Dst: b.DB1.PrivateIP,
				Proto: vnet.TCP, DstPort: dstPort, Payload: a.Payload})
	case a.SrcCompromised:
		verdict = b.Env.Fabric.Evaluate(
			gateway.Source{Kind: gateway.FromInstance, VPCID: b.Analytics.ID, InstanceID: bastion.ID},
			vnet.Packet{Src: bastion.PrivateIP, Dst: b.DB1.PrivateIP,
				Proto: vnet.TCP, DstPort: 5432, Payload: a.Payload})
	default:
		// From the legitimate spark tier.
		verdict = b.Env.Fabric.Evaluate(
			gateway.Source{Kind: gateway.FromInstance, VPCID: b.Analytics.ID, InstanceID: b.Spark1.ID},
			vnet.Packet{Src: b.Spark1.PrivateIP, Dst: b.DB1.PrivateIP,
				Proto: vnet.TCP, DstPort: 5432, Payload: a.Payload})
	}
	if !verdict.Delivered {
		return "network"
	}
	return apiOutcome(gw, readTok, lowTok, a)
}

// runDeclarativeAttack pushes one attack at the declarative model's
// database service.
func runDeclarativeAttack(d *DeclarativeFig1, gw *app.Gateway, readTok, lowTok string, bastion core.EIP, a workload.Attack) string {
	var src core.EIP
	switch {
	case a.SrcExternal:
		src = addr.MustParseIP("203.0.113.66") // not a granted EIP at all
	case a.SrcCompromised:
		src = bastion
	default:
		src = d.Spark1
	}
	if !d.Cloud.Admitted(src, d.DBService) {
		return "network"
	}
	return apiOutcome(gw, readTok, lowTok, a)
}

// apiOutcome runs the application half of an attack through the shared
// API gateway. PayloadExploit carries a well-formed, authorized call with
// hostile content — only DPI (absent in the declarative model, present in
// the baseline firewall which already ruled at the network layer) or
// application input validation can stop it; the gateway models schema
// checks, not content inspection, so it leaks.
func apiOutcome(gw *app.Gateway, readTok, lowTok string, a workload.Attack) string {
	req := app.Request{Bearer: readTok, Op: "get_order", Args: map[string]string{"id": "7"}}
	switch {
	case a.Anonymous:
		req.Bearer = ""
	case a.WrongScope:
		req.Bearer = lowTok
		req.Op = "admin_dump"
	case a.Malformed:
		req.Args = map[string]string{}
	case a.Kind == workload.PayloadExploit:
		req.Args = map[string]string{"id": a.Payload}
	}
	if out := gw.Handle(req); out != app.Served {
		return "application"
	}
	return "leaked"
}
