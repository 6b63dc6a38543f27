// Package exp is the experiment harness: it reconstructs the paper's
// Figure-1 deployment under both networking models and runs the ten
// experiments DESIGN.md indexes (E1–E10), each returning a printable
// metrics.Table. cmd/expdriver and bench_test.go are thin wrappers.
package exp

import (
	"fmt"

	"declnet/internal/addr"
	"declnet/internal/appliance"
	"declnet/internal/cloudapi"
	"declnet/internal/core"
	"declnet/internal/gateway"
	"declnet/internal/permit"
	"declnet/internal/qos"
	"declnet/internal/simplane"
	"declnet/internal/topo"
	"declnet/internal/vnet"
)

// Tenant is the canonical tenant name used across experiments.
const Tenant = "acme"

// BaselineFig1 is the paper's Figure-1 deployment built the hard way: six
// VPCs across two clouds and two regions each, the gateway menagerie to
// interconnect them and the on-prem site, security groups / NSGs, NACLs,
// a load balancer and a firewall. Every box and knob lands in Env.Ledger.
type BaselineFig1 struct {
	Env *cloudapi.Env

	// VPCs by role.
	Analytics, Web, Logs *vnet.VPC // cloud A
	DB, Cache, DR        *vnet.VPC // cloud B

	// Named instances the experiments drive traffic between.
	Spark1, Spark2, WebSrv *vnet.Instance
	DB1, DB2               *vnet.Instance

	// Gateways.
	TGWA, TGWB *gateway.TGW
	Firewall   *appliance.Firewall
	LB         *appliance.LoadBalancer

	AWS   *cloudapi.AWS
	Azure *cloudapi.Azure
}

// BuildBaselineFig1 provisions the whole baseline deployment. It returns
// a working fabric: the cross-cloud and on-prem paths below are exercised
// by tests before any experiment trusts the counts.
func BuildBaselineFig1() (*BaselineFig1, error) {
	env := cloudapi.NewEnv()
	aws := cloudapi.NewAWS(env, "a-east")
	azure := cloudapi.NewAzure(env, "b-east")
	b := &BaselineFig1{Env: env, AWS: aws, Azure: azure}

	anywhere := "0.0.0.0/0"

	// --- Cloud A (aws-like) ---------------------------------------------
	var err error
	if b.Analytics, err = aws.CreateVpc("vpc-analytics", "10.0.0.0/16", cloudapi.VpcOptions{EnableDNSSupport: true, InstanceTenancy: "default"}); err != nil {
		return nil, err
	}
	if err := aws.CreateSubnet(b.Analytics, "pub", "10.0.1.0/24", "a-east-1a", true); err != nil {
		return nil, err
	}
	if err := aws.CreateSubnet(b.Analytics, "priv", "10.0.2.0/24", "a-east-1b", false); err != nil {
		return nil, err
	}
	if b.Web, err = aws.CreateVpc("vpc-web", "10.1.0.0/16", cloudapi.VpcOptions{EnableDNSSupport: true}); err != nil {
		return nil, err
	}
	if err := aws.CreateSubnet(b.Web, "pub", "10.1.1.0/24", "a-east-1a", true); err != nil {
		return nil, err
	}
	if b.Logs, err = aws.CreateVpc("vpc-logs", "10.2.0.0/16", cloudapi.VpcOptions{}); err != nil {
		return nil, err
	}
	if err := aws.CreateSubnet(b.Logs, "main", "10.2.1.0/24", "a-west-1a", false); err != nil {
		return nil, err
	}

	// Security groups: spark talks out; db port open from analytics only.
	if err := aws.CreateSecurityGroup(b.Analytics, "spark", "spark workers"); err != nil {
		return nil, err
	}
	mustRule := func(e error) error { return e }
	if err := mustRule(aws.AuthorizeSecurityGroupEgress(b.Analytics, "spark", sgAll())); err != nil {
		return nil, err
	}
	if err := aws.AuthorizeSecurityGroupIngress(b.Analytics, "spark", sgFrom("10.0.0.0/8", vnet.TCP, 7077, 7077)); err != nil {
		return nil, err
	}
	if err := aws.AuthorizeSecurityGroupIngress(b.Analytics, "spark", sgFrom("10.0.0.0/8", vnet.TCP, 443, 443)); err != nil {
		return nil, err
	}
	if err := aws.CreateSecurityGroup(b.Web, "web", "front end"); err != nil {
		return nil, err
	}
	if err := aws.AuthorizeSecurityGroupIngress(b.Web, "web", sgFrom(anywhere, vnet.TCP, 443, 443)); err != nil {
		return nil, err
	}
	if err := aws.AuthorizeSecurityGroupEgress(b.Web, "web", sgAll()); err != nil {
		return nil, err
	}
	if err := aws.CreateSecurityGroup(b.Logs, "logs", "log sink"); err != nil {
		return nil, err
	}
	if err := aws.AuthorizeSecurityGroupIngress(b.Logs, "logs", sgFrom("10.0.0.0/8", vnet.TCP, 514, 514)); err != nil {
		return nil, err
	}
	if err := aws.AuthorizeSecurityGroupEgress(b.Logs, "logs", sgAll()); err != nil {
		return nil, err
	}

	// Instances.
	if b.Spark1, err = aws.RunInstance(b.Analytics, "spark-1", "priv", "spark"); err != nil {
		return nil, err
	}
	if b.Spark2, err = aws.RunInstance(b.Analytics, "spark-2", "priv", "spark"); err != nil {
		return nil, err
	}
	if b.WebSrv, err = aws.RunInstance(b.Web, "web-1", "pub", "web"); err != nil {
		return nil, err
	}
	if _, err = aws.RunInstance(b.Logs, "logs-1", "main", "logs"); err != nil {
		return nil, err
	}

	// Internet access: IGW for web VPC (public service) + NAT for the
	// private analytics subnet.
	igwWeb := aws.CreateInternetGateway()
	if err := aws.AttachInternetGateway(igwWeb, b.Web); err != nil {
		return nil, err
	}
	if err := aws.CreateRoute(b.Web, "pub", anywhere, vnet.Target{Kind: vnet.TIGW, ID: igwWeb}); err != nil {
		return nil, err
	}
	alloc := aws.AllocateAddress()
	if err := aws.AssociateAddress(alloc, b.Web, "web-1"); err != nil {
		return nil, err
	}
	igwA := aws.CreateInternetGateway()
	if err := aws.AttachInternetGateway(igwA, b.Analytics); err != nil {
		return nil, err
	}
	if err := aws.CreateRoute(b.Analytics, "pub", anywhere, vnet.Target{Kind: vnet.TIGW, ID: igwA}); err != nil {
		return nil, err
	}
	if _, err := aws.CreateNatGateway(b.Analytics, "pub"); err != nil {
		return nil, err
	}

	// --- Cloud B (azure-like) -------------------------------------------
	if b.DB, err = azure.CreateVirtualNetwork("vnet-db", []string{"10.3.0.0/16"}); err != nil {
		return nil, err
	}
	if err := azure.AddSubnet(b.DB, "data", "10.3.1.0/24"); err != nil {
		return nil, err
	}
	if b.Cache, err = azure.CreateVirtualNetwork("vnet-cache", []string{"10.4.0.0/16"}); err != nil {
		return nil, err
	}
	if err := azure.AddSubnet(b.Cache, "main", "10.4.1.0/24"); err != nil {
		return nil, err
	}
	if b.DR, err = azure.CreateVirtualNetwork("vnet-dr", []string{"10.5.0.0/16"}); err != nil {
		return nil, err
	}
	if err := azure.AddSubnet(b.DR, "main", "10.5.1.0/24"); err != nil {
		return nil, err
	}

	// NSG: postgres from the analytics VPC and on-prem only.
	if err := azure.CreateNetworkSecurityGroup("nsg-db"); err != nil {
		return nil, err
	}
	if err := azure.AddSecurityRule("nsg-db", 100, "Inbound", vnet.Allow, vnet.TCP, 5432, 5432, "10.0.0.0/16"); err != nil {
		return nil, err
	}
	if err := azure.AddSecurityRule("nsg-db", 110, "Inbound", vnet.Allow, vnet.TCP, 5432, 5432, "192.168.0.0/16"); err != nil {
		return nil, err
	}
	if err := azure.AddSecurityRule("nsg-db", 200, "Outbound", vnet.Allow, vnet.AnyProto, 1, 65535, anywhere); err != nil {
		return nil, err
	}
	if err := azure.AssociateNSGToSubnet(b.DB, "nsg-db", "data"); err != nil {
		return nil, err
	}
	if err := azure.CreateNSGBackedSecurityGroup(b.DB, "nsg-db"); err != nil {
		return nil, err
	}
	nic1, err := azure.CreateNetworkInterface(b.DB, "data", []string{"nsg-db"}, "")
	if err != nil {
		return nil, err
	}
	if b.DB1, err = azure.CreateVM("db-1", nic1); err != nil {
		return nil, err
	}
	nic2, _ := azure.CreateNetworkInterface(b.DB, "data", []string{"nsg-db"}, "")
	if b.DB2, err = azure.CreateVM("db-2", nic2); err != nil {
		return nil, err
	}

	// --- On-prem ----------------------------------------------------------
	site, err := env.Fabric.AddSite("hq", addr.MustParsePrefix("192.168.0.0/16"))
	if err != nil {
		return nil, err
	}

	// --- Interconnect: TGW-A == hub-B, site VPN, peering -----------------
	if b.TGWA, err = aws.CreateTransitGateway(64512); err != nil {
		return nil, err
	}
	attAnalytics, err := aws.CreateTransitGatewayAttachment(b.TGWA, gateway.AttachVPC, b.Analytics.ID)
	if err != nil {
		return nil, err
	}
	_ = attAnalytics
	if _, err := aws.CreateTransitGatewayAttachment(b.TGWA, gateway.AttachVPC, b.Web.ID); err != nil {
		return nil, err
	}
	if _, err := aws.CreateTransitGatewayAttachment(b.TGWA, gateway.AttachSite, "hq"); err != nil {
		return nil, err
	}
	if err := aws.EnableTransitGatewayRoutePropagation(b.TGWA); err != nil {
		return nil, err
	}
	if b.TGWB, err = azure.CreateVirtualWANHub("b-east"); err != nil {
		return nil, err
	}
	connDB, err := azure.ConnectVNetToHub(b.TGWB, b.DB)
	if err != nil {
		return nil, err
	}
	_ = connDB
	if _, err := azure.ConnectVNetToHub(b.TGWB, b.Cache); err != nil {
		return nil, err
	}
	peerAB, err := aws.CreateTransitGatewayAttachment(b.TGWA, gateway.AttachPeer, b.TGWB.ID)
	if err != nil {
		return nil, err
	}
	peerBA, err := azure.PeerHubs(b.TGWB, b.TGWA)
	if err != nil {
		return nil, err
	}
	// Static routes across the peering (never propagated — §2's pain).
	if err := aws.CreateTransitGatewayRoute(b.TGWA, "10.3.0.0/16", peerAB); err != nil {
		return nil, err
	}
	if err := aws.CreateTransitGatewayRoute(b.TGWA, "10.4.0.0/16", peerAB); err != nil {
		return nil, err
	}
	if err := azure.HubRoute(b.TGWB, "10.0.0.0/16", peerBA); err != nil {
		return nil, err
	}
	if err := azure.HubRoute(b.TGWB, "192.168.0.0/16", peerBA); err != nil {
		return nil, err
	}

	// Egress-only gateway for the DR VNet (outbound patches, no inbound).
	if _, err := env.Fabric.CreateEgressIGW("eigw-dr", b.DR.ID); err != nil {
		return nil, err
	}
	if err := azure.AddUserRoute(b.DR, "main", "0.0.0.0/0", vnet.Target{Kind: vnet.TEgressIGW, ID: "eigw-dr"}); err != nil {
		return nil, err
	}

	// VPN triple on cloud A for redundancy plus the logs peering.
	vgwID := aws.CreateVpnGateway()
	aws.CreateCustomerGateway("hq")
	if _, err := aws.CreateVpnConnection(vgwID, b.Analytics, "hq"); err != nil {
		return nil, err
	}
	pcx, err := aws.CreateVpcPeeringConnection(b.Analytics, b.Logs)
	if err != nil {
		return nil, err
	}
	aws.AcceptVpcPeeringConnection(pcx)

	// Subnet routes pointing at the interconnect.
	for _, sn := range []string{"pub", "priv"} {
		if err := aws.CreateRoute(b.Analytics, sn, "10.3.0.0/16", vnet.Target{Kind: vnet.TTGW, ID: b.TGWA.ID}); err != nil {
			return nil, err
		}
		if err := aws.CreateRoute(b.Analytics, sn, "192.168.0.0/16", vnet.Target{Kind: vnet.TTGW, ID: b.TGWA.ID}); err != nil {
			return nil, err
		}
		if err := aws.CreateRoute(b.Analytics, sn, "10.2.0.0/16", vnet.Target{Kind: vnet.TPeering, ID: pcx}); err != nil {
			return nil, err
		}
	}
	if err := azure.AddUserRoute(b.DB, "data", "10.0.0.0/16", vnet.Target{Kind: vnet.TTGW, ID: b.TGWB.ID}); err != nil {
		return nil, err
	}
	if err := azure.AddUserRoute(b.DB, "data", "192.168.0.0/16", vnet.Target{Kind: vnet.TTGW, ID: b.TGWB.ID}); err != nil {
		return nil, err
	}
	// Site routes toward both clouds.
	site.AddRoute(addr.MustParsePrefix("10.0.0.0/16"), vnet.Target{Kind: vnet.TTGW, ID: b.TGWA.ID})
	site.AddRoute(addr.MustParsePrefix("10.3.0.0/16"), vnet.Target{Kind: vnet.TTGW, ID: b.TGWA.ID})
	env.Ledger.Step() // site router config
	env.Ledger.Step()

	// --- Appliances -------------------------------------------------------
	b.LB = aws.CreateLoadBalancer(appliance.ApplicationLB)
	tg := appliance.NewTargetGroup("tg-spark")
	tg.Register(b.Spark1.ID)
	tg.Register(b.Spark2.ID)
	b.LB.AddTargetGroup(tg, env.Ledger)
	if err := b.LB.SetDefault("tg-spark", env.Ledger); err != nil {
		return nil, err
	}
	if b.Firewall, err = azure.CreateAzureFirewall(b.DB); err != nil {
		return nil, err
	}
	b.Firewall.AddRule(appliance.FWRule{Action: vnet.Allow, Src: addr.MustParsePrefix("10.0.0.0/8"),
		Dst: addr.MustParsePrefix("10.3.0.0/16")}, env.Ledger)
	b.Firewall.AddRule(appliance.FWRule{Action: vnet.Allow, Src: addr.MustParsePrefix("192.168.0.0/16"),
		Dst: addr.MustParsePrefix("10.3.0.0/16")}, env.Ledger)
	b.Firewall.AddSignature("DROP TABLE", env.Ledger)

	return b, nil
}

func sgAll() vnet.SGRule {
	return vnet.SGRule{Source: addr.MustParsePrefix("0.0.0.0/0")}
}

func sgFrom(cidr string, proto vnet.Protocol, from, to int) vnet.SGRule {
	return vnet.SGRule{Proto: proto, PortFrom: from, PortTo: to, Source: addr.MustParsePrefix(cidr)}
}

// DeclarativeFig1 is the same logical deployment expressed through the
// Table-2 API: endpoints, one service address, permit lists, a QoS grant —
// and nothing else.
type DeclarativeFig1 struct {
	Cloud *core.Cloud
	World *topo.Fig1World
	// Sim is the simulated data plane the cloud programs.
	Sim *simplane.Plane

	ProvA, ProvB, ProvOnPrem *core.Provider

	Spark1, Spark2, WebSrv core.EIP
	DB1, DB2               core.EIP
	Logs, Alerts           core.EIP
	DBService              core.SIP

	// APICalls counts tenant-facing verb invocations — the declarative
	// model's entire provisioning burden.
	APICalls map[string]int
}

// BuildDeclarativeFig1 provisions the declarative equivalent over the
// Fig-1 world graph.
func BuildDeclarativeFig1(seed int64, hostsPerZone int) (*DeclarativeFig1, error) {
	w := topo.BuildFig1(hostsPerZone)
	sp := simplane.New(seed, w.Graph)
	c := sp.Cloud
	d := &DeclarativeFig1{Cloud: c, World: w, Sim: sp, APICalls: make(map[string]int)}
	var err error
	if d.ProvA, d.ProvB, d.ProvOnPrem, err = core.AddFig1Providers(c, w); err != nil {
		return nil, err
	}
	tn := c.Tenant(Tenant)
	call := func(verb string) { d.APICalls[verb]++ }

	eip := func(node topo.NodeID) (core.EIP, error) {
		call("request_eip")
		return tn.RequestEIP(node)
	}
	if d.Spark1, err = eip(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)); err != nil {
		return nil, err
	}
	if d.Spark2, err = eip(topo.HostID(w.CloudA, w.RegionsA[0], "az2", 1)); err != nil {
		return nil, err
	}
	if d.WebSrv, err = eip(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 2)); err != nil {
		return nil, err
	}
	if d.Logs, err = eip(topo.HostID(w.CloudA, w.RegionsA[1], "az1", 1)); err != nil {
		return nil, err
	}
	if d.DB1, err = eip(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1)); err != nil {
		return nil, err
	}
	if d.DB2, err = eip(topo.HostID(w.CloudB, w.RegionsB[0], "az2", 1)); err != nil {
		return nil, err
	}
	if d.Alerts, err = eip("onprem/hq/host1"); err != nil {
		return nil, err
	}

	call("request_sip")
	if d.DBService, err = tn.RequestSIP(d.ProvB.Name); err != nil {
		return nil, err
	}
	call("bind")
	if err := tn.Bind(d.DB1, d.DBService, 1); err != nil {
		return nil, err
	}
	call("bind")
	if err := tn.Bind(d.DB2, d.DBService, 1); err != nil {
		return nil, err
	}

	// Permit lists: exactly the app's communication matrix.
	permitList := func(dst addr.IP, srcs ...core.EIP) error {
		call("set_permit_list")
		entries := make([]permit.Entry, len(srcs))
		for i, s := range srcs {
			entries[i] = addr.NewPrefix(s, 32)
		}
		return tn.SetPermitList(dst, entries)
	}
	if err := permitList(d.Spark1, d.WebSrv, d.Spark2); err != nil {
		return nil, err
	}
	if err := permitList(d.Spark2, d.WebSrv, d.Spark1); err != nil {
		return nil, err
	}
	if err := permitList(d.DBService, d.Spark1, d.Spark2, d.Alerts); err != nil {
		return nil, err
	}
	if err := permitList(d.DB1, d.Spark1, d.Spark2, d.Alerts); err != nil {
		return nil, err
	}
	if err := permitList(d.DB2, d.Spark1, d.Spark2, d.Alerts); err != nil {
		return nil, err
	}
	if err := permitList(d.Logs, d.Spark1, d.Spark2, d.WebSrv); err != nil {
		return nil, err
	}
	if err := permitList(d.Alerts, d.Spark1, d.Spark2); err != nil {
		return nil, err
	}
	// Web front end is open to the world.
	call("set_permit_list")
	if err := tn.SetPermitList(d.WebSrv, []permit.Entry{addr.MustParsePrefix("0.0.0.0/0")}); err != nil {
		return nil, err
	}

	// One QoS grant: analytics region egress.
	call("set_qos")
	if err := tn.SetQoS(d.ProvA.Name, w.RegionsA[0], 10*topo.Gbps); err != nil {
		return nil, err
	}
	call("set_potato")
	if err := tn.SetPotato(d.ProvA.Name, qos.ColdPotato); err != nil {
		return nil, err
	}
	return d, nil
}

// TotalAPICalls sums the declarative provisioning burden.
func (d *DeclarativeFig1) TotalAPICalls() int {
	var n int
	for _, v := range d.APICalls {
		n += v
	}
	return n
}

// sanity check helper shared by tests: can spark reach db in each model.
func (b *BaselineFig1) SparkToDB() vnet.Verdict {
	return b.Env.Fabric.Evaluate(
		gateway.Source{Kind: gateway.FromInstance, VPCID: b.Analytics.ID, InstanceID: b.Spark1.ID},
		vnet.Packet{Src: b.Spark1.PrivateIP, Dst: b.DB1.PrivateIP, Proto: vnet.TCP, DstPort: 5432})
}

// SparkToDB opens the analogous declarative connection.
func (d *DeclarativeFig1) SparkToDB() error {
	conn, err := d.Sim.Tenant(Tenant).Connect(d.Spark1, d.DBService, simplane.ConnectOpts{SizeBytes: -1})
	if err != nil {
		return err
	}
	conn.Close()
	return nil
}

var _ = fmt.Sprintf
