package topo

import (
	"fmt"
	"time"
)

// Convenient rate units in bits per second.
const (
	Kbps = 1e3
	Mbps = 1e6
	Gbps = 1e9
	Tbps = 1e12
)

// RegionSpec describes one region to build.
type RegionSpec struct {
	Name  string
	Zones int
	// HostsPerZone hosts are attached to each zone fabric.
	HostsPerZone int
}

// ProviderSpec describes one cloud provider to build.
type ProviderSpec struct {
	Name    string
	Regions []RegionSpec
	// BackboneCapacity is the inter-region WAN link rate (default 100 Gbps).
	BackboneCapacity float64
	// BackboneDelay approximates inter-region distance (default 30ms).
	BackboneDelay time.Duration
}

// Builder incrementally assembles a multi-cloud world graph.
type Builder struct {
	g *Graph
}

// NewBuilder returns a builder over a fresh graph.
func NewBuilder() *Builder { return &Builder{g: New()} }

// Graph returns the built graph.
func (b *Builder) Graph() *Graph { return b.g }

// Names for the node IDs a builder generates, so callers can find them.
func HostID(provider, region, zone string, i int) NodeID {
	return NodeID(fmt.Sprintf("%s/%s/%s/host%d", provider, region, zone, i))
}
func ZoneID(provider, region, zone string) NodeID {
	return NodeID(fmt.Sprintf("%s/%s/%s/fabric", provider, region, zone))
}
func RegionRouterID(provider, region string) NodeID {
	return NodeID(fmt.Sprintf("%s/%s/core", provider, region))
}
func BorderID(provider, region string) NodeID {
	return NodeID(fmt.Sprintf("%s/%s/border", provider, region))
}
func IXPID(name string) NodeID      { return NodeID("ixp/" + name) }
func OnPremID(name string) NodeID   { return NodeID("onprem/" + name) }
func InternetID(name string) NodeID { return NodeID("inet/" + name) }

// AddProvider builds a provider: per region a core router, a border
// router, zone fabrics and hosts; regions joined by a full-mesh private
// backbone; each border attached to the public internet core.
func (b *Builder) AddProvider(spec ProviderSpec) {
	g := b.g
	if spec.BackboneCapacity == 0 {
		spec.BackboneCapacity = 100 * Gbps
	}
	if spec.BackboneDelay == 0 {
		spec.BackboneDelay = 20 * time.Millisecond
	}
	for _, r := range spec.Regions {
		core := g.MustAddNode(Node{ID: RegionRouterID(spec.Name, r.Name), Kind: RegionRouter, Provider: spec.Name, Region: r.Name})
		border := g.MustAddNode(Node{ID: BorderID(spec.Name, r.Name), Kind: BorderRouter, Provider: spec.Name, Region: r.Name})
		g.MustConnect(fmt.Sprintf("%s/%s/core-border", spec.Name, r.Name),
			core.ID, border.ID, Backbone, spec.BackboneCapacity, time.Millisecond, 100*time.Microsecond, 0)
		for z := 0; z < r.Zones; z++ {
			zone := fmt.Sprintf("az%d", z+1)
			fabric := g.MustAddNode(Node{ID: ZoneID(spec.Name, r.Name, zone), Kind: ZoneFabric, Provider: spec.Name, Region: r.Name, Zone: zone})
			g.MustConnect(fmt.Sprintf("%s/%s/%s/uplink", spec.Name, r.Name, zone),
				fabric.ID, core.ID, Fabric, 400*Gbps, 500*time.Microsecond, 50*time.Microsecond, 0)
			for h := 0; h < r.HostsPerZone; h++ {
				host := g.MustAddNode(Node{ID: HostID(spec.Name, r.Name, zone, h+1), Kind: Host, Provider: spec.Name, Region: r.Name, Zone: zone})
				g.MustConnect(fmt.Sprintf("%s/%s/%s/h%d", spec.Name, r.Name, zone, h+1),
					host.ID, fabric.ID, Access, 10*Gbps, 50*time.Microsecond, 10*time.Microsecond, 0)
			}
		}
	}
	// Full-mesh backbone between the provider's regions.
	for i := 0; i < len(spec.Regions); i++ {
		for j := i + 1; j < len(spec.Regions); j++ {
			a, c := spec.Regions[i].Name, spec.Regions[j].Name
			g.MustConnect(fmt.Sprintf("%s/bb/%s-%s", spec.Name, a, c),
				RegionRouterID(spec.Name, a), RegionRouterID(spec.Name, c),
				Backbone, spec.BackboneCapacity, spec.BackboneDelay, 500*time.Microsecond, 1e-6)
		}
	}
}

// AddInternetCore builds n abstract transit nodes in a ring with chords,
// representing the public internet between providers, and returns their
// IDs. Transit links carry higher delay, jitter, and loss than backbones.
func (b *Builder) AddInternetCore(n int) []NodeID {
	g := b.g
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		id := InternetID(fmt.Sprintf("t%d", i+1))
		g.MustAddNode(Node{ID: id, Kind: InternetCore})
		ids[i] = id
	}
	for i := 0; i < n; i++ {
		next := (i + 1) % n
		if n > 1 && i < next || n == 1 {
			g.MustConnect(fmt.Sprintf("inet/ring%d-%d", i+1, next+1),
				ids[i], ids[next], Transit, 400*Gbps, 35*time.Millisecond, 5*time.Millisecond, 1e-4)
		}
	}
	if n > 2 { // close the ring
		g.MustConnect(fmt.Sprintf("inet/ring%d-%d", n, 1),
			ids[n-1], ids[0], Transit, 400*Gbps, 35*time.Millisecond, 5*time.Millisecond, 1e-4)
	}
	return ids
}

// AttachBorderToInternet connects a provider region's border router to a
// transit node over a public peering link.
func (b *Builder) AttachBorderToInternet(provider, region string, transit NodeID) {
	b.g.MustConnect(fmt.Sprintf("%s/%s/peer-%s", provider, region, transit),
		BorderID(provider, region), transit, Transit, 200*Gbps, 12*time.Millisecond, 4*time.Millisecond, 1e-4)
}

// AddIXP builds an exchange-point router and returns its ID.
func (b *Builder) AddIXP(name string) NodeID {
	id := IXPID(name)
	b.g.MustAddNode(Node{ID: id, Kind: IXPRouter})
	return id
}

// AttachIXPToInternet gives the exchange public connectivity.
func (b *Builder) AttachIXPToInternet(ixp, transit NodeID) {
	b.g.MustConnect(fmt.Sprintf("%s/peer-%s", ixp, transit),
		ixp, transit, Transit, 200*Gbps, 10*time.Millisecond, 2*time.Millisecond, 1e-4)
}

// AddDedicated provisions a dedicated circuit (Direct-Connect class)
// between a provider border router and an IXP router.
func (b *Builder) AddDedicated(name string, provider, region string, ixp NodeID, capacity float64) {
	b.g.MustConnect("dx/"+name,
		BorderID(provider, region), ixp, Dedicated, capacity, 10*time.Millisecond, 50*time.Microsecond, 1e-7)
}

// AddOnPrem builds a private datacenter: an edge router plus hosts.
func (b *Builder) AddOnPrem(name string, hosts int) NodeID {
	g := b.g
	edge := g.MustAddNode(Node{ID: OnPremID(name), Kind: OnPremRouter, Provider: "onprem", Region: name})
	for h := 0; h < hosts; h++ {
		id := NodeID(fmt.Sprintf("onprem/%s/host%d", name, h+1))
		g.MustAddNode(Node{ID: id, Kind: Host, Provider: "onprem", Region: name})
		g.MustConnect(fmt.Sprintf("onprem/%s/h%d", name, h+1),
			id, edge.ID, Access, 10*Gbps, 100*time.Microsecond, 10*time.Microsecond, 0)
	}
	return edge.ID
}

// AttachOnPremToInternet gives a datacenter public connectivity.
func (b *Builder) AttachOnPremToInternet(onprem, transit NodeID) {
	b.g.MustConnect(fmt.Sprintf("%s/peer-%s", onprem, transit),
		onprem, transit, Transit, 10*Gbps, 12*time.Millisecond, 3*time.Millisecond, 2e-4)
}

// AddMPLS provisions a private MPLS circuit between an on-prem edge and an
// IXP router (the "MPLS connection to an on-prem location" from §2).
func (b *Builder) AddMPLS(name string, onprem, ixp NodeID, capacity float64) {
	b.g.MustConnect("mpls/"+name,
		onprem, ixp, Dedicated, capacity, 8*time.Millisecond, 100*time.Microsecond, 1e-7)
}

// Fig1World reproduces the deployment of the paper's Figure 1: a tenant
// spanning two cloud providers (two regions each), an on-prem datacenter,
// an exchange facility with dedicated connections from each cloud and an
// MPLS link to on-prem, and the public internet connecting everything.
type Fig1World struct {
	Graph    *Graph
	CloudA   string // "aws-like" provider
	CloudB   string // "azure-like" provider
	RegionsA []string
	RegionsB []string
	OnPrem   NodeID
	IXP      NodeID
	Transit  []NodeID
}

// BuildFig1 constructs the Figure-1 world with hostsPerZone hosts in each
// of 2 zones per region (2 when hostsPerZone < 1).
func BuildFig1(hostsPerZone int) *Fig1World {
	if hostsPerZone < 1 {
		hostsPerZone = 2
	}
	b := NewBuilder()
	w := &Fig1World{
		CloudA:   "cloudA",
		CloudB:   "cloudB",
		RegionsA: []string{"a-east", "a-west"},
		RegionsB: []string{"b-east", "b-west"},
	}
	b.AddProvider(ProviderSpec{Name: w.CloudA, Regions: []RegionSpec{
		{Name: w.RegionsA[0], Zones: 2, HostsPerZone: hostsPerZone},
		{Name: w.RegionsA[1], Zones: 2, HostsPerZone: hostsPerZone},
	}})
	b.AddProvider(ProviderSpec{Name: w.CloudB, Regions: []RegionSpec{
		{Name: w.RegionsB[0], Zones: 2, HostsPerZone: hostsPerZone},
		{Name: w.RegionsB[1], Zones: 2, HostsPerZone: hostsPerZone},
	}})
	w.Transit = b.AddInternetCore(3)
	b.AttachBorderToInternet(w.CloudA, w.RegionsA[0], w.Transit[0])
	b.AttachBorderToInternet(w.CloudA, w.RegionsA[1], w.Transit[1])
	b.AttachBorderToInternet(w.CloudB, w.RegionsB[0], w.Transit[1])
	b.AttachBorderToInternet(w.CloudB, w.RegionsB[1], w.Transit[2])
	w.IXP = b.AddIXP("equinix-like")
	b.AttachIXPToInternet(w.IXP, w.Transit[0])
	b.AddDedicated("cloudA-dx", w.CloudA, w.RegionsA[0], w.IXP, 10*Gbps)
	b.AddDedicated("cloudB-er", w.CloudB, w.RegionsB[0], w.IXP, 10*Gbps)
	w.OnPrem = b.AddOnPrem("hq", hostsPerZone)
	b.AttachOnPremToInternet(w.OnPrem, w.Transit[2])
	b.AddMPLS("hq-mpls", w.OnPrem, w.IXP, 2*Gbps)
	w.Graph = b.Graph()
	return w
}
