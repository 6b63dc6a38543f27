package core

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"declnet/internal/qos"
	"declnet/internal/topo"
)

// DataPlane is the one seam between the control plane and the network it
// programs: all the verbs, the read plane and the fault monitor ask of a
// network. Its signatures name only time, math/rand, topo and qos types,
// so an implementation needs nothing of core. The simulator implements
// it (package simplane) for the experiments, the tests and the root
// World; a per-host node agent would implement the same seam. A cloud
// built with NoDataPlane programs no network at all: declnetd's.
//
// A verb or read calls After, Every and StartFlow concurrently with
// others: an implementation serializes what they write.
type DataPlane interface {
	// Now reads the data plane's clock.
	Now() time.Duration
	// After runs fn once, d from now: a deferred permit's retry.
	After(d time.Duration, fn func())
	// Every runs fn each period in the background, keeping no run alive
	// on its own: a quota limiter's control round, the health sweep.
	Every(period time.Duration, fn func())
	// Reachable reports whether node n answers; Cause names why it does
	// not, the injected fault first.
	Reachable(n topo.NodeID) bool
	Cause(n topo.NodeID) []string
	// Rand is the source probes sample jitter and loss from, shared by
	// concurrent probes.
	Rand() *rand.Rand
	// StartFlow starts Connect's flow over path: sizeBytes long (< 0:
	// persistent), capped at maxRate bits/s; onDone fires when a sized
	// flow completes, with its completion time.
	StartFlow(path topo.Path, sizeBytes, maxRate float64, onDone func(time.Duration)) (qos.Flow, error)
}

// NoDataPlane is the data plane of a cloud that programs no network:
// every node is reachable, the clock stays at 0, nothing is scheduled (so
// no quota limiter runs and no permit retry or health sweep is queued),
// Connect is refused, and probes sample jitter and loss from a locked
// source seeded with seed.
func NoDataPlane(seed int64) DataPlane {
	return noPlane{rng: rand.New(&lockedSource{src: rand.NewSource(seed)})}
}

var errNoDataPlane = errors.New("core: this cloud programs no data plane to start a flow on")

type noPlane struct{ rng *rand.Rand }

func (noPlane) Now() time.Duration          { return 0 }
func (noPlane) After(time.Duration, func()) {}
func (noPlane) Every(time.Duration, func()) {}
func (noPlane) Reachable(topo.NodeID) bool  { return true }
func (noPlane) Cause(topo.NodeID) []string  { return nil }
func (p noPlane) Rand() *rand.Rand          { return p.rng }
func (noPlane) StartFlow(topo.Path, float64, float64, func(time.Duration)) (qos.Flow, error) {
	return nil, errNoDataPlane
}

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
