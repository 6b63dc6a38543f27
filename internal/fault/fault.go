// Package fault is the failure-injection subsystem: it takes links,
// nodes, and whole provider regions out of service (and back) as
// first-class events of the discrete-event simulation, so the provider
// control plane's resilience story — SIP failover, permit-plane retry,
// quota re-sharing — can be drilled instead of assumed.
//
// Failures compose by reference counting at two levels. A node may be
// down because it was failed directly and because its region was failed;
// it comes back only when every cause is lifted. A directed link may be
// down because it was failed as a pair and because either endpoint node
// is down. The data plane reacts through the incremental fair-share
// solver's dirty-set machinery (stalled flows pin at rate 0, or are
// killed after StallTimeout); the control plane observes failures only
// the way a real provider would — via reachability probes against the
// injector — never by callback from the failure itself.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"declnet/internal/netsim"
	"declnet/internal/sim"
	"declnet/internal/topo"
)

// Kind classifies a scheduled fault event.
type Kind int

const (
	// LinkDown / LinkUp fail and restore both directions of a link pair
	// (Target is the pair ID used with topo.Connect).
	LinkDown Kind = iota
	LinkUp
	// NodeDown / NodeUp fail and restore a node (Target is the NodeID);
	// every incident directed link goes with it.
	NodeDown
	NodeUp
	// RegionDown / RegionUp fail and restore every node of a provider
	// region (Target is "provider/region").
	RegionDown
	RegionUp
)

var kindNames = map[Kind]string{
	LinkDown: "link-down", LinkUp: "link-up",
	NodeDown: "node-down", NodeUp: "node-up",
	RegionDown: "region-down", RegionUp: "region-up",
}

func (k Kind) String() string { return kindNames[k] }

// Event is one scheduled failure or recovery.
type Event struct {
	At     sim.Time
	Kind   Kind
	Target string
}

// Schedule is a deterministic failure drill: events applied in At order
// (ties broken by schedule position).
type Schedule []Event

// Injector owns failure state for one simulated world.
type Injector struct {
	eng *sim.Engine
	g   *topo.Graph
	net *netsim.Network

	// StallTimeout, when positive, kills flows that are still stalled on
	// a failed link this long after the failure (the "or kills affected
	// flows" half of the failure model). Zero leaves flows pinned at
	// rate 0 until the link heals.
	StallTimeout sim.Time

	// nodeFaults counts reasons a node is down (direct + region).
	nodeFaults map[topo.NodeID]int
	// directDown counts direct FailNode causes only, so Cause can tell
	// "this node was failed" apart from "its whole region was failed".
	directDown map[topo.NodeID]int
	// linkFaults counts reasons a directed link is down (pair fault +
	// one per down endpoint node).
	linkFaults map[string]int
	// pairsDown marks pairs explicitly failed with FailLink.
	pairsDown map[string]bool
	// regionsDown marks regions explicitly failed with FailRegion.
	regionsDown map[string]bool

	// Counters for experiment tables.
	LinkFailures   uint64
	NodeFailures   uint64
	RegionFailures uint64
	Recoveries     uint64
	FlowsKilled    uint64
}

// NewInjector returns an injector over the world. The network may be nil
// when only reachability bookkeeping is wanted (control-plane tests).
func NewInjector(eng *sim.Engine, g *topo.Graph, net *netsim.Network) *Injector {
	return &Injector{
		eng: eng, g: g, net: net,
		nodeFaults:  make(map[topo.NodeID]int),
		directDown:  make(map[topo.NodeID]int),
		linkFaults:  make(map[string]int),
		pairsDown:   make(map[string]bool),
		regionsDown: make(map[string]bool),
	}
}

// ---- Queries (what the control plane is allowed to see) ----------------

// NodeUp reports whether the node itself is in service.
func (in *Injector) NodeUp(id topo.NodeID) bool { return in.nodeFaults[id] == 0 }

// LinkUp reports whether a directed link is in service.
func (in *Injector) LinkUp(id string) bool { return in.linkFaults[id] == 0 }

// Reachable reports whether a node is up and has at least one working
// egress link — the liveness signal provider health checks consume.
func (in *Injector) Reachable(id topo.NodeID) bool {
	if in.nodeFaults[id] != 0 {
		return false
	}
	out := in.g.Out(id)
	if len(out) == 0 {
		return true
	}
	for _, l := range out {
		if in.linkFaults[l.ID] == 0 {
			return true
		}
	}
	return false
}

// Cause explains why a node is unreachable, as ordered cause-chain links
// ("node-down:<id>", "region-down:<provider>/<region>", "link-down:<pair>")
// suitable for obs.Chain. A reachable node yields nil. This is the
// injector's contribution to GET /v1/explain: the control plane normally
// sees only the boolean Reachable; diagnosis gets the ground truth.
func (in *Injector) Cause(id topo.NodeID) []string {
	var out []string
	if in.nodeFaults[id] > 0 {
		if in.directDown[id] > 0 {
			out = append(out, "node-down:"+string(id))
		}
		if n, ok := in.g.Node(id); ok && n.Provider != "" {
			if key := n.Provider + "/" + n.Region; in.regionsDown[key] {
				out = append(out, "region-down:"+key)
			}
		}
		if len(out) == 0 {
			// Down only transitively (e.g. a region restore raced a direct
			// fail count); still name the node.
			out = append(out, "node-down:"+string(id))
		}
		return out
	}
	// Node itself is up: unreachability can only come from dead egress.
	links := in.g.Out(id)
	if len(links) == 0 {
		return nil
	}
	seen := make(map[string]bool)
	allDown := true
	for _, l := range links {
		if in.linkFaults[l.ID] == 0 {
			allDown = false
			continue
		}
		pair := strings.TrimSuffix(strings.TrimSuffix(l.ID, ":fwd"), ":rev")
		if in.pairsDown[pair] && !seen[pair] {
			seen[pair] = true
			out = append(out, "link-down:"+pair)
		}
	}
	if !allDown {
		return nil
	}
	sort.Strings(out)
	return out
}

// ---- Immediate fault operations ----------------------------------------

// FailLink takes both directions of a link pair out of service.
// Idempotent: failing an already-failed pair is a no-op.
func (in *Injector) FailLink(pairID string) error {
	if in.pairsDown[pairID] {
		return nil
	}
	if _, ok := in.g.Link(pairID + ":fwd"); !ok {
		return fmt.Errorf("fault: unknown link pair %q", pairID)
	}
	in.pairsDown[pairID] = true
	in.LinkFailures++
	in.addLinkFault(pairID+":fwd", 1)
	in.addLinkFault(pairID+":rev", 1)
	return nil
}

// RestoreLink returns a failed link pair to service. Restoring a pair
// that is not explicitly failed is a no-op.
func (in *Injector) RestoreLink(pairID string) error {
	if !in.pairsDown[pairID] {
		return nil
	}
	delete(in.pairsDown, pairID)
	in.Recoveries++
	in.addLinkFault(pairID+":fwd", -1)
	in.addLinkFault(pairID+":rev", -1)
	return nil
}

// FailNode takes a node out of service: the node is marked down and every
// incident directed link gains a fault. Idempotent per cause.
func (in *Injector) FailNode(id topo.NodeID) error {
	if _, ok := in.g.Node(id); !ok {
		return fmt.Errorf("fault: unknown node %q", id)
	}
	in.NodeFailures++
	in.directDown[id]++
	in.addNodeFault(id, 1)
	return nil
}

// RestoreNode lifts one direct node failure.
func (in *Injector) RestoreNode(id topo.NodeID) error {
	if _, ok := in.g.Node(id); !ok {
		return fmt.Errorf("fault: unknown node %q", id)
	}
	if in.nodeFaults[id] == 0 {
		return nil
	}
	in.Recoveries++
	if in.directDown[id] > 0 {
		if in.directDown[id]--; in.directDown[id] == 0 {
			delete(in.directDown, id)
		}
	}
	in.addNodeFault(id, -1)
	return nil
}

// FailRegion partitions an entire provider region: every node in it goes
// down. Idempotent: a region already failed is a no-op.
func (in *Injector) FailRegion(provider, region string) error {
	key := provider + "/" + region
	if in.regionsDown[key] {
		return nil
	}
	nodes := in.g.NodesOf(provider, region)
	if len(nodes) == 0 {
		return fmt.Errorf("fault: no nodes in region %s/%s", provider, region)
	}
	in.regionsDown[key] = true
	in.RegionFailures++
	for _, n := range nodes {
		in.addNodeFault(n.ID, 1)
	}
	return nil
}

// RestoreRegion heals a partitioned region. Nodes also failed directly
// stay down until their own restore.
func (in *Injector) RestoreRegion(provider, region string) error {
	key := provider + "/" + region
	if !in.regionsDown[key] {
		return nil
	}
	delete(in.regionsDown, key)
	in.Recoveries++
	for _, n := range in.g.NodesOf(provider, region) {
		in.addNodeFault(n.ID, -1)
	}
	return nil
}

// ---- Scheduling --------------------------------------------------------

// Apply schedules every event of a drill at its absolute virtual time.
// Events in the past are an error (as with the engine itself).
func (in *Injector) Apply(s Schedule) {
	ordered := append(Schedule(nil), s...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
	for _, ev := range ordered {
		ev := ev
		in.eng.Schedule(ev.At, func() {
			if err := in.apply(ev); err != nil {
				panic(fmt.Sprintf("fault: applying %s %q: %v", ev.Kind, ev.Target, err))
			}
		})
	}
}

func (in *Injector) apply(ev Event) error {
	switch ev.Kind {
	case LinkDown:
		return in.FailLink(ev.Target)
	case LinkUp:
		return in.RestoreLink(ev.Target)
	case NodeDown:
		return in.FailNode(topo.NodeID(ev.Target))
	case NodeUp:
		return in.RestoreNode(topo.NodeID(ev.Target))
	case RegionDown, RegionUp:
		provider, region, ok := splitRegion(ev.Target)
		if !ok {
			return fmt.Errorf("fault: region target %q is not provider/region", ev.Target)
		}
		if ev.Kind == RegionDown {
			return in.FailRegion(provider, region)
		}
		return in.RestoreRegion(provider, region)
	default:
		return fmt.Errorf("fault: unknown event kind %d", ev.Kind)
	}
}

func splitRegion(target string) (provider, region string, ok bool) {
	for i := 0; i < len(target); i++ {
		if target[i] == '/' {
			return target[:i], target[i+1:], i > 0 && i < len(target)-1
		}
	}
	return "", "", false
}

// ---- Internals ---------------------------------------------------------

func (in *Injector) addNodeFault(id topo.NodeID, delta int) {
	before := in.nodeFaults[id]
	after := before + delta
	if after < 0 {
		after = 0
	}
	if after == 0 {
		delete(in.nodeFaults, id)
	} else {
		in.nodeFaults[id] = after
	}
	// A node's links fault with its first cause and heal with its last.
	if (before == 0) == (after == 0) {
		return
	}
	for _, l := range in.g.Incident(id) {
		in.addLinkFault(l.ID, delta)
	}
}

func (in *Injector) addLinkFault(id string, delta int) {
	before := in.linkFaults[id]
	after := before + delta
	if after < 0 {
		after = 0
	}
	if after == 0 {
		delete(in.linkFaults, id)
	} else {
		in.linkFaults[id] = after
	}
	if (before == 0) == (after == 0) {
		return
	}
	up := after == 0
	if in.net != nil {
		if !up && in.StallTimeout > 0 {
			// Capture the victims before the failure lands; kill the ones
			// still stalled when the timeout expires.
			victims := in.net.FlowsOn(id)
			in.eng.After(in.StallTimeout, func() {
				for _, f := range victims {
					if !f.Done() && f.Stalled() {
						in.FlowsKilled++
						in.net.Kill(f)
					}
				}
			})
		}
		if err := in.net.SetLinkUp(id, up); err != nil {
			panic(fmt.Sprintf("fault: link %q: %v", id, err))
		}
	} else if err := in.g.SetLinkUp(id, up); err != nil {
		panic(fmt.Sprintf("fault: link %q: %v", id, err))
	}
}
