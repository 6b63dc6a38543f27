// Package declnet is a reference implementation of the declarative,
// endpoint-centric cloud tenant networking API proposed in "Rethinking
// Networking Abstractions for Cloud Tenants" (HotOS '21): instead of
// building virtual networks from VPCs, gateways, and appliances, a tenant
// asks for endpoint IPs and service IPs, attaches permit lists and QoS
// intents to them, and lets the provider do the rest.
//
// The five verbs of the paper's Table 2 map to:
//
//	request_eip(vm_id)              -> Tenant.RequestEIP
//	request_sip()                   -> Tenant.RequestSIP
//	bind(eip, sip)                  -> Tenant.Bind
//	set_permit_list(eip, permits)   -> Tenant.SetPermitList / Permit / Revoke
//	set_qos(region, bandwidth)      -> Tenant.SetQoS
//
// plus the extensions the paper sketches: weights on bind, endpoint
// groups, and hot/cold-potato transit profiles. Tenant is core.Tenant,
// the only Go facade for the verbs: each builds one intent.Op and runs it
// through core.Cloud.Apply, into the one apply loop every HTTP mutation
// route reaches through core.Cloud.ApplyBatch.
//
// A World runs the control plane in-process against a deterministic
// multi-cloud simulation: a world graph of providers, regions, backbones,
// internet transit, exchange points, and on-prem sites (package
// internal/topo), programmed through core's data-plane seam by the
// simulator in package internal/simplane — a flow-level max-min fair
// network, its event engine and its fault injector. NewFig1World builds
// the paper's Figure-1 deployment substrate in one call. declnetd serves
// the same control plane over HTTP with no simulator: its cloud is built
// from core and topo alone.
package declnet

import (
	"fmt"
	"time"

	"declnet/internal/addr"
	"declnet/internal/core"
	"declnet/internal/permit"
	"declnet/internal/qos"
	"declnet/internal/simplane"
	"declnet/internal/topo"
)

// Re-exported address types: EIP is an endpoint IP (flat, globally
// routable, default-off); SIP is a load-balanced service IP.
type (
	EIP = core.EIP
	SIP = core.SIP
	// IP is a raw IPv4 address.
	IP = addr.IP
	// Prefix is a CIDR prefix used in permit lists.
	Prefix = addr.Prefix
	// NodeID names a compute endpoint (VM/container) in the world graph.
	NodeID = topo.NodeID
)

// Potato profiles, re-exported from the QoS engine.
const (
	HotPotato  = qos.HotPotato
	ColdPotato = qos.ColdPotato
	Dedicated  = qos.Dedicated
)

// ParseIP and ParsePrefix parse dotted-quad and CIDR notation.
func ParseIP(s string) (IP, error)         { return addr.ParseIP(s) }
func ParsePrefix(s string) (Prefix, error) { return addr.ParsePrefix(s) }

// Exact returns the permit entry matching a single endpoint.
func Exact(ip IP) Prefix { return addr.NewPrefix(ip, 32) }

// Anywhere returns the permit entry matching every source (a public
// service's permit list).
func Anywhere() Prefix { return addr.MustParsePrefix("0.0.0.0/0") }

// World is a running multi-cloud simulation with provider control planes.
// It embeds the cloud, so the cloud's planes are World's: Tenant,
// EnableFaults, EnableIntent, EnableReconciler, StateDigest and the rest.
type World struct {
	*core.Cloud
	// Fig1 describes the built world when NewFig1World was used.
	Fig1 *topo.Fig1World
	// Sim is the simulated data plane the cloud programs: its engine,
	// flow network and fault injector.
	Sim *simplane.Plane
}

// NewFig1World builds the paper's Figure-1 substrate — two cloud
// providers with two regions each, an on-prem datacenter, an internet
// exchange with dedicated circuits, and the public internet — and brings
// up a Table-2 control plane for each administrative domain.
// hostsPerZone sets the compute capacity per availability zone (2 when
// it is below 1).
func NewFig1World(seed int64, hostsPerZone int) (*World, error) {
	w := topo.BuildFig1(hostsPerZone)
	sim := simplane.New(seed, w.Graph)
	c := core.NewCloud(w.Graph, sim)
	if _, _, _, err := core.AddFig1Providers(c, w); err != nil {
		return nil, err
	}
	return &World{Cloud: c, Fig1: w, Sim: sim}, nil
}

// Host returns the NodeID of host n (1-based) in the given provider,
// region, and zone — the vm_id handed to RequestEIP.
func (w *World) Host(provider, region, zone string, n int) NodeID {
	return topo.HostID(provider, region, zone, n)
}

// OnPremHost returns the NodeID of host n at the on-prem site.
func (w *World) OnPremHost(n int) NodeID {
	return NodeID(fmt.Sprintf("onprem/hq/host%d", n))
}

// Run advances the simulation until its event queue drains. Run, RunFor,
// Fail and Heal take no lock, and engine callbacks may call verbs: drive
// them from one goroutine, with no verb or read in flight on another.
// The HTTP control plane (internal/api) never calls them; a drill that
// serves verbs concurrently runs them between rounds of requests.
func (w *World) Run() { w.Sim.Eng.Run() }

// RunFor advances the simulation by the given virtual duration.
func (w *World) RunFor(d time.Duration) {
	w.Sim.Eng.RunUntil(w.Sim.Eng.Now() + d)
}

// FaultPolicy sets the provider's health-check cadence; the failover
// threshold, re-bind backoff and permit-retry window are fixed.
type FaultPolicy = core.FaultPolicy

// FaultMonitor is the provider-side failure-reaction loop; see
// World.EnableFaults. Drills inject through World.Sim.Inj.
type FaultMonitor = core.FaultMonitor

// DefaultFaultPolicy probes every 500ms, a common cloud health-check
// setting.
func DefaultFaultPolicy() FaultPolicy { return core.DefaultFaultPolicy() }

// Fail injects an infrastructure failure. kind is "link" (target: link
// pair ID), "node" (target: node ID), or "region" (target:
// "provider/region"). Faults are enabled with the default policy on first
// use. The failure takes effect immediately; the provider reacts as
// virtual time advances.
func (w *World) Fail(kind, target string) error {
	w.Cloud.EnableFaults(core.FaultPolicy{})
	return w.Sim.Fault(kind, target, true)
}

// Heal reverses a failure injected with Fail.
func (w *World) Heal(kind, target string) error {
	w.Cloud.EnableFaults(core.FaultPolicy{})
	return w.Sim.Fault(kind, target, false)
}

// Explanation is the ordered verdict chain /v1/explain returns; see
// core.Explanation.
type Explanation = core.Explanation

// ExplainStep is one stage of a replayed datapath decision.
type ExplainStep = core.ExplainStep

// Tenant is a tenant-scoped view of the Table-2 API across all providers
// in the world — the paper's uniform multi-cloud interface; see
// core.Tenant.
type Tenant = core.Tenant

// ConnectOpts tunes Connect; see core.ConnectOpts.
type ConnectOpts = core.ConnectOpts

// Conn is a live connection; Close releases its resources.
type Conn = core.Conn

// QoSClass marks whether traffic consumes the regional reservation.
type QoSClass = core.QoSClass

// Traffic classes for the §4-footnote reserved-bandwidth extension.
const (
	Reserved   = core.Reserved
	BestEffort = core.BestEffort
)

// Entry builds a permit entry from a CIDR string, panicking on bad input;
// for tests and example code.
func Entry(cidr string) permit.Entry { return addr.MustParsePrefix(cidr) }
