package exp

import (
	"fmt"
	"math/rand"
	"testing"

	"declnet/internal/addr"
	"declnet/internal/cloudapi"
	"declnet/internal/core"
	"declnet/internal/gateway"
	"declnet/internal/permit"
	"declnet/internal/simplane"
	"declnet/internal/topo"
	"declnet/internal/vnet"
)

// The differential reachability oracle: a random tenant policy — "these
// sources may reach this destination" — is compiled both to declnet
// permit lists and to baseline security-group rules, and the two stacks
// must return identical allow/deny verdicts for every probe. Permit
// lists are address-scoped (no ports), so the baseline compilation opens
// all ports/protocols for each permitted source; any verdict difference
// is then a real semantic divergence between the permit plane and the
// VPC/SG plane, not a modeling artifact.
//
// diffPolicy[dst][src] is the ground truth both compilations encode.
type diffPolicy [][]bool

func randomPolicy(rng *rand.Rand, n int) diffPolicy {
	p := make(diffPolicy, n)
	for d := range p {
		p[d] = make([]bool, n)
		for s := range p[d] {
			if s != d && rng.Intn(3) > 0 { // ~2/3 dense, leaves real denies
				p[d][s] = rng.Intn(2) == 0
			}
		}
	}
	return p
}

// diffBaseline compiles the policy to one VPC with per-instance security
// groups and returns a verdict function over (src, dst, proto, port).
func diffBaseline(t *testing.T, pol diffPolicy) func(src, dst int, proto vnet.Protocol, port int) bool {
	t.Helper()
	n := len(pol)
	env := cloudapi.NewEnv()
	aws := cloudapi.NewAWS(env, "a-east")
	vpc, err := aws.CreateVpc("vpc-diff", "10.9.0.0/16", cloudapi.VpcOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := aws.CreateSubnet(vpc, "main", "10.9.1.0/24", "a-east-1a", false); err != nil {
		t.Fatal(err)
	}
	insts := make([]*vnet.Instance, n)
	for i := 0; i < n; i++ {
		sg := fmt.Sprintf("sg-%d", i)
		if err := aws.CreateSecurityGroup(vpc, sg, "per-instance allow-list"); err != nil {
			t.Fatal(err)
		}
		if err := aws.AuthorizeSecurityGroupEgress(vpc, sg, vnet.SGRule{Source: addr.MustParsePrefix("0.0.0.0/0")}); err != nil {
			t.Fatal(err)
		}
		insts[i], err = aws.RunInstance(vpc, fmt.Sprintf("i-%d", i), "main", sg)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Ingress rules need the assigned private IPs, so they compile after
	// the instances exist: one all-port /32 rule per permitted source.
	for d := 0; d < n; d++ {
		for s := 0; s < n; s++ {
			if !pol[d][s] {
				continue
			}
			rule := vnet.SGRule{Proto: vnet.AnyProto, Source: addr.NewPrefix(insts[s].PrivateIP, 32)}
			if err := aws.AuthorizeSecurityGroupIngress(vpc, fmt.Sprintf("sg-%d", d), rule); err != nil {
				t.Fatal(err)
			}
		}
	}
	return func(src, dst int, proto vnet.Protocol, port int) bool {
		v := env.Fabric.Evaluate(
			gateway.Source{Kind: gateway.FromInstance, VPCID: vpc.ID, InstanceID: insts[src].ID},
			vnet.Packet{Src: insts[src].PrivateIP, Dst: insts[dst].PrivateIP, Proto: proto, DstPort: port})
		return v.Delivered
	}
}

// diffDeclnet compiles the same policy to Table-2 permit lists over EIPs
// and returns the admission verdict function.
func diffDeclnet(t *testing.T, pol diffPolicy, seed int64) func(src, dst int, proto vnet.Protocol, port int) bool {
	t.Helper()
	n := len(pol)
	w := topo.BuildFig1(3)
	c := simplane.New(seed, w.Graph).Cloud
	if _, _, _, err := core.AddFig1Providers(c, w); err != nil {
		t.Fatal(err)
	}
	var err error
	// Spread endpoints across regions/zones/hosts so the EIPs come from
	// different dense blocks (the interesting case for prefix matching).
	eips := make([]core.EIP, n)
	i := 0
	for _, region := range w.RegionsA {
		for _, az := range []string{"az1", "az2"} {
			for h := 1; h <= 3 && i < n; h++ {
				eips[i], err = c.Tenant(Tenant).RequestEIP(topo.HostID(w.CloudA, region, az, h))
				if err != nil {
					t.Fatal(err)
				}
				i++
			}
		}
	}
	if i < n {
		t.Fatalf("world too small: placed %d of %d endpoints", i, n)
	}
	for d := 0; d < n; d++ {
		var entries []permit.Entry
		for s := 0; s < n; s++ {
			if pol[d][s] {
				entries = append(entries, addr.NewPrefix(eips[s], 32))
			}
		}
		if err := c.Tenant(Tenant).SetPermitList(eips[d], entries); err != nil {
			t.Fatal(err)
		}
	}
	return func(src, dst int, proto vnet.Protocol, port int) bool {
		// Admission is address-scoped by design: proto/port are part of
		// the probe only so both oracles see identical inputs.
		return c.Admitted(eips[src], eips[dst])
	}
}

func TestDifferentialReachability(t *testing.T) {
	const (
		nInstances = 12
		nProbes    = 1200
	)
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pol := randomPolicy(rng, nInstances)
			base := diffBaseline(t, pol)
			decl := diffDeclnet(t, pol, seed)

			protos := []vnet.Protocol{vnet.TCP, vnet.UDP}
			mismatches := 0
			for p := 0; p < nProbes; p++ {
				src := rng.Intn(nInstances)
				dst := rng.Intn(nInstances)
				for dst == src {
					dst = rng.Intn(nInstances)
				}
				proto := protos[rng.Intn(len(protos))]
				port := 1 + rng.Intn(65535)
				want := pol[dst][src]
				gotBase := base(src, dst, proto, port)
				gotDecl := decl(src, dst, proto, port)
				if gotBase != gotDecl || gotBase != want {
					mismatches++
					if mismatches <= 5 {
						t.Errorf("probe %d→%d %s:%d: baseline=%v declnet=%v policy=%v",
							src, dst, proto, port, gotBase, gotDecl, want)
					}
				}
			}
			if mismatches > 0 {
				t.Fatalf("%d of %d probes disagreed", mismatches, nProbes)
			}
		})
	}
}

// A destination with an empty permit list must be unreachable from every
// source in both models — default-off is the paper's core security claim,
// and the baseline compilation (an SG with no ingress rules) encodes it
// identically.
func TestDifferentialDefaultOff(t *testing.T) {
	const n = 6
	pol := make(diffPolicy, n)
	for d := range pol {
		pol[d] = make([]bool, n)
	}
	base := diffBaseline(t, pol)
	decl := diffDeclnet(t, pol, 99)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if base(s, d, vnet.TCP, 443) {
				t.Fatalf("baseline delivered %d→%d with empty allow-list", s, d)
			}
			if decl(s, d, vnet.TCP, 443) {
				t.Fatalf("declnet admitted %d→%d with empty permit list", s, d)
			}
		}
	}
}
