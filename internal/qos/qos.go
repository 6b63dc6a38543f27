// Package qos implements the path half of the paper's QoS proposal (§4):
// hot/cold-potato exit-path selection for traffic leaving the cloud, and
// the epoch-keyed path cache (Router) in front of it. The regional
// egress guarantee's enforcement, a distributed rate limiter over the
// flows a simulated network runs, lives with that network in package
// simplane.
package qos

import (
	"fmt"

	"declnet/internal/topo"
)

// PotatoPolicy selects how traffic exits the cloud (§4 QoS): hot potato
// leaves the provider WAN as early as possible; cold potato rides the
// backbone as far as possible; Dedicated uses only provisioned private
// circuits and fails when none exist.
type PotatoPolicy int

const (
	// HotPotato exits to the public internet at the nearest border.
	HotPotato PotatoPolicy = iota
	// ColdPotato stays on the provider backbone until the latest exit.
	ColdPotato
	// Dedicated uses only private circuits end to end.
	Dedicated
)

var potatoNames = map[PotatoPolicy]string{
	HotPotato: "hot", ColdPotato: "cold", Dedicated: "dedicated",
}

func (p PotatoPolicy) String() string { return potatoNames[p] }

// ParsePotatoPolicy is String's inverse over the wire names ("hot",
// "cold", "dedicated"); an unknown name is an error and yields HotPotato.
func ParsePotatoPolicy(s string) (PotatoPolicy, error) {
	for p, name := range potatoNames {
		if name == s {
			return p, nil
		}
	}
	return HotPotato, fmt.Errorf("qos: unknown potato policy %q", s)
}

// PathFor computes the route src->dst under the policy.
func PathFor(g *topo.Graph, policy PotatoPolicy, src, dst topo.NodeID) (topo.Path, error) {
	// The declarative model deliberately has no tenant-provisioned
	// dedicated circuits (§4: "We do not support the dedicated links
	// mentioned in §2 in our model"), so hot and cold potato both forbid
	// them; the Dedicated policy exists as the baseline comparator.
	switch policy {
	case HotPotato:
		// Penalize backbone links so the path exits to transit early.
		return g.ShortestPath(src, dst, topo.PathOpts{
			Forbid: map[topo.LinkKind]bool{topo.Dedicated: true},
			Avoid:  map[topo.LinkKind]bool{topo.Backbone: true},
		})
	case ColdPotato:
		// Penalize transit so the path rides the backbone to the latest
		// exit.
		return g.ShortestPath(src, dst, topo.PathOpts{
			Forbid: map[topo.LinkKind]bool{topo.Dedicated: true},
			Avoid:  map[topo.LinkKind]bool{topo.Transit: true},
		})
	case Dedicated:
		p, err := g.ShortestPath(src, dst, topo.PathOpts{
			Forbid: map[topo.LinkKind]bool{topo.Transit: true},
		})
		if err != nil {
			return nil, fmt.Errorf("qos: no dedicated path %s->%s: %w", src, dst, err)
		}
		return p, nil
	default:
		return nil, fmt.Errorf("qos: unknown potato policy %d", policy)
	}
}
