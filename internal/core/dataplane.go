package core

import (
	"math/rand"
	"sync"
	"time"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/topo"
)

// DataPlane is the one seam between the control plane and the network it
// programs: what a node agent answers the verbs, the read plane and the
// reconciler. The simulator implements it (package simplane) for the
// experiments, the tests and the root World, and builds connections and
// the fault monitor over it; a per-host node agent would implement the
// same seam. A cloud built with NoDataPlane programs no network at all:
// declnetd's.
//
// Verbs and reads call it concurrently: an implementation serializes
// what its methods write.
type DataPlane interface {
	// Now reads the data plane's clock.
	Now() time.Duration
	// Reachable reports whether node n answers; Cause names why it does
	// not, the injected fault first.
	Reachable(n topo.NodeID) bool
	Cause(n topo.NodeID) []string
	// Rand is the source probes sample jitter and loss from, shared by
	// concurrent probes.
	Rand() *rand.Rand
	// Apply learns op, which core folded for tenant and installed its own
	// half of: the declared change. A set_qos installs its quota here;
	// RestoreIntent and the reconciler's quota repair hand it the set_qos
	// they install.
	Apply(tenant string, op *intent.Op)
	// DeferPermit takes a permit update core could not install: target's
	// enforcement point, node, is unreachable. The plane installs the list
	// target's record declares into p's permit engine once node answers,
	// or gives up. edits is the update's entry count; set marks a
	// set_permit.
	DeferPermit(p *Provider, tenant string, target addr.IP, edits int, set bool, node topo.NodeID)
	// PendingPermit reports whether an update for target is deferred, and
	// since when.
	PendingPermit(target addr.IP) (since time.Duration, ok bool)
	// TakeMarks consumes the targets whose deferred update landed or timed
	// out since the last call: the reconciler checks them first.
	TakeMarks() map[addr.IP]bool
	// Quota reads the installed (provider, tenant, region) egress quota and
	// how many of its enforcement points are up; ok is false on a plane
	// that installs no quotas, where the declared quota stands.
	Quota(provider, tenant, region string) (bps float64, up, total int, ok bool)
}

// NoDataPlane is the data plane of a cloud that programs no network:
// every node is reachable, the clock stays at 0, no permit update is
// deferred, no quota is installed (so the reconciler finds no quota
// drift), and probes sample jitter and loss from a locked source seeded
// with seed.
func NoDataPlane(seed int64) DataPlane {
	return noPlane{rng: rand.New(&lockedSource{src: rand.NewSource(seed)})}
}

type noPlane struct{ rng *rand.Rand }

func (noPlane) Now() time.Duration                                             { return 0 }
func (noPlane) Reachable(topo.NodeID) bool                                     { return true }
func (noPlane) Cause(topo.NodeID) []string                                     { return nil }
func (p noPlane) Rand() *rand.Rand                                             { return p.rng }
func (noPlane) Apply(string, *intent.Op)                                       {}
func (noPlane) DeferPermit(*Provider, string, addr.IP, int, bool, topo.NodeID) {}
func (noPlane) PendingPermit(addr.IP) (time.Duration, bool)                    { return 0, false }
func (noPlane) TakeMarks() map[addr.IP]bool                                    { return nil }
func (noPlane) Quota(string, string, string) (float64, int, int, bool)         { return 0, 0, 0, false }

// lockedSource serializes a rand source, so concurrent probes may share
// the rand.Rand over it.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}
