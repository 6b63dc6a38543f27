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
// through core.Cloud.Apply, as the HTTP routes and /v1/batch do.
//
// Everything runs against a deterministic multi-cloud simulation: a world
// graph of providers, regions, backbones, internet transit, exchange
// points, and on-prem sites (package internal/topo), with a flow-level
// max-min fair data plane (package internal/netsim). NewFig1World builds
// the paper's Figure-1 deployment substrate in one call.
package declnet

import (
	"fmt"
	"strings"
	"time"

	"declnet/internal/addr"
	"declnet/internal/core"
	"declnet/internal/intent"
	"declnet/internal/metrics"
	"declnet/internal/obs"
	"declnet/internal/permit"
	"declnet/internal/qos"
	"declnet/internal/slo"
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
type World struct {
	Cloud *core.Cloud
	// Fig1 describes the built world when NewFig1World was used.
	Fig1 *topo.Fig1World
}

// NewFig1World builds the paper's Figure-1 substrate — two cloud
// providers with two regions each, an on-prem datacenter, an internet
// exchange with dedicated circuits, and the public internet — and brings
// up a Table-2 control plane for each administrative domain.
// hostsPerZone sets the compute capacity per availability zone.
func NewFig1World(seed int64, hostsPerZone int) (*World, error) {
	if hostsPerZone < 1 {
		hostsPerZone = 2
	}
	w := topo.BuildFig1(hostsPerZone)
	c := core.NewCloud(seed, w.Graph)
	if _, _, _, err := core.AddFig1Providers(c, w); err != nil {
		return nil, err
	}
	return &World{Cloud: c, Fig1: w}, nil
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
// Fail and Heal take no lock: engine callbacks may call verbs. Drive
// them from one goroutine, or inside Cloud.Exclusive while other
// goroutines serve verbs.
func (w *World) Run() { w.Cloud.Eng.Run() }

// RunFor advances the simulation by the given virtual duration.
func (w *World) RunFor(d time.Duration) {
	w.Cloud.Eng.RunUntil(w.Cloud.Eng.Now() + d)
}

// Now returns the current virtual time.
func (w *World) Now() time.Duration { return w.Cloud.Now() }

// AttachMeter turns on usage metering across all providers; pass a
// *meter.Meter (see internal/meter) or any core.Biller.
func (w *World) AttachMeter(b core.Biller) { w.Cloud.SetBiller(b) }

// FaultPolicy sets the provider's health-check cadence; the failover
// threshold, re-bind backoff and permit-retry window are fixed.
type FaultPolicy = core.FaultPolicy

// FaultMonitor is the provider-side failure-reaction loop plus the fault
// injector driving drills; see World.EnableFaults.
type FaultMonitor = core.FaultMonitor

// DefaultFaultPolicy probes every 500ms, a common cloud health-check
// setting.
func DefaultFaultPolicy() FaultPolicy { return core.DefaultFaultPolicy() }

// EnableFaults arms the provider health monitor that reacts to injected
// faults (SIP failover, quota degradation, permit retries). The first
// call's policy wins; a zero policy takes the defaults.
func (w *World) EnableFaults(policy FaultPolicy) *FaultMonitor {
	return w.Cloud.EnableFaults(policy)
}

// Faults returns the fault monitor (idle until EnableFaults).
func (w *World) Faults() *FaultMonitor { return w.Cloud.Faults() }

// Fail injects an infrastructure failure. kind is "link" (target: link
// pair ID), "node" (target: node ID), or "region" (target:
// "provider/region"). Faults are enabled with the default policy on first
// use. The failure takes effect immediately; the provider reacts as
// virtual time advances.
func (w *World) Fail(kind, target string) error { return w.faultOp(kind, target, true) }

// Heal reverses a failure injected with Fail.
func (w *World) Heal(kind, target string) error { return w.faultOp(kind, target, false) }

func (w *World) faultOp(kind, target string, fail bool) error {
	inj := w.Cloud.EnableFaults(core.FaultPolicy{}).Inj
	switch kind {
	case "link":
		if fail {
			return inj.FailLink(target)
		}
		return inj.RestoreLink(target)
	case "node":
		if fail {
			return inj.FailNode(topo.NodeID(target))
		}
		return inj.RestoreNode(topo.NodeID(target))
	case "region":
		i := strings.IndexByte(target, '/')
		if i <= 0 || i >= len(target)-1 {
			return fmt.Errorf("declnet: region target %q is not provider/region", target)
		}
		if fail {
			return inj.FailRegion(target[:i], target[i+1:])
		}
		return inj.RestoreRegion(target[:i], target[i+1:])
	default:
		return fmt.Errorf("declnet: unknown fault kind %q (want link, node, or region)", kind)
	}
}

// Explanation is the ordered verdict chain /v1/explain returns; see
// core.Explanation.
type Explanation = core.Explanation

// ExplainStep is one stage of a replayed datapath decision.
type ExplainStep = core.ExplainStep

// EnableObservability attaches a decision tracer and metrics registry to
// every provider (see internal/obs and internal/metrics). Either may be
// nil to enable only one side.
func (w *World) EnableObservability(tr *obs.Tracer, reg *metrics.Registry) {
	w.Cloud.EnableObservability(tr, reg)
}

// EnableSLO attaches (or detaches, with nil) the per-shard latency
// accounting plane: verb histograms, request-scoped spans with a flight
// recorder, declared objectives with burn rates, and the noisy-neighbor
// detector. Breaches land in the decision trace when one is attached.
func (w *World) EnableSLO(p *slo.Plane) { w.Cloud.EnableSLO(p) }

// SLO returns the attached latency plane, nil until EnableSLO.
func (w *World) SLO() *slo.Plane { return w.Cloud.SLO() }

// EnableIntent attaches the durable intent store: every accepted
// mutation from this point is journaled before the verb returns (see
// internal/intent).
func (w *World) EnableIntent(l *intent.Log) { w.Cloud.EnableIntent(l) }

// Intent returns the attached intent store, nil until EnableIntent.
func (w *World) Intent() *intent.Log { return w.Cloud.Intent() }

// RestoreIntent rebuilds the in-memory control plane from a replayed
// declared state — the daemon's restart-recovery path. Call on a fresh
// world over the same topology, before EnableIntent.
func (w *World) RestoreIntent(st *intent.State) error { return w.Cloud.RestoreIntent(st) }

// StateDigest canonically hashes the durable control-plane state, for
// kill-and-restart equivalence checks.
func (w *World) StateDigest() string { return w.Cloud.StateDigest() }

// EnableReconciler builds the desired-state convergence loop (requires
// EnableIntent first).
func (w *World) EnableReconciler(cfg core.ReconcilerConfig) (*core.Reconciler, error) {
	return w.Cloud.EnableReconciler(cfg)
}

// Reconciler returns the convergence loop, nil until EnableReconciler.
func (w *World) Reconciler() *core.Reconciler { return w.Cloud.Reconciler() }

// Tracer returns the decision tracer, nil until EnableObservability.
func (w *World) Tracer() *obs.Tracer { return w.Cloud.Tracer() }

// Registry returns the metrics registry, nil until EnableObservability.
func (w *World) Registry() *metrics.Registry { return w.Cloud.Registry() }

// Tenant returns a handle scoped to one tenant account. Creating the
// handle is free; all state lives provider-side.
func (w *World) Tenant(name string) *Tenant { return w.Cloud.Tenant(name) }

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
