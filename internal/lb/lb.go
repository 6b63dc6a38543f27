// Package lb is the provider-side load balancer behind the paper's
// bind(eip, sip) verb (§4 Availability): traffic to a service IP is
// spread across the endpoint IPs bound to it, weighted as the tenant
// requested, with health tracking and connection draining handled by the
// provider — no tenant-visible load balancer box at all.
package lb

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"declnet/internal/addr"
)

// Backend is one EIP bound to a SIP.
type Backend struct {
	EIP    addr.IP
	Weight int // relative share; bind defaults it to 1

	healthy  bool
	draining bool
	active   int // in-flight connections
	current  int // smooth-WRR running counter
}

// Healthy reports whether the backend is in rotation.
func (b *Backend) Healthy() bool { return b.healthy && !b.draining }

// Active reports in-flight connections.
func (b *Backend) Active() int { return b.active }

// Balancer spreads connections for one SIP across its backends using
// smooth weighted round robin (deterministic, proportional to weights,
// maximally interleaved — the nginx algorithm). All methods are safe for
// concurrent use: the API read plane serves probes in parallel, and a
// probe advances the WRR state.
type Balancer struct {
	SIP addr.IP

	mu       sync.Mutex
	backends map[addr.IP]*Backend
	// Picks and Errors count balancing outcomes for experiments. Guarded
	// by mu; read them only when no picks are in flight.
	Picks  uint64
	Errors uint64
}

// New returns an empty balancer for sip.
func New(sip addr.IP) *Balancer {
	return &Balancer{SIP: sip, backends: make(map[addr.IP]*Backend)}
}

// Bind adds or re-weights a backend; weight < 1 is clamped to 1.
func (b *Balancer) Bind(eip addr.IP, weight int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if weight < 1 {
		weight = 1
	}
	if cur, ok := b.backends[eip]; ok {
		cur.Weight = weight
		cur.draining = false
		return
	}
	b.backends[eip] = &Backend{EIP: eip, Weight: weight, healthy: true}
}

// ErrNotBound is Unbind's and SetHealth's answer for an address the
// balancer does not hold. It is a fixed value because a miss is the
// common case: release_eip and the health checker ask every balancer of a
// provider, and all but a few answer this.
var ErrNotBound = errors.New("lb: backend not bound")

// Unbind starts draining a backend: no new connections, existing ones
// finish. The backend disappears once its last connection releases.
func (b *Balancer) Unbind(eip addr.IP) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	be, ok := b.backends[eip]
	if !ok {
		return ErrNotBound
	}
	be.draining = true
	if be.active == 0 {
		delete(b.backends, eip)
	}
	return nil
}

// SetHealth marks a backend up or down (provider health checks drive it).
func (b *Balancer) SetHealth(eip addr.IP, healthy bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	be, ok := b.backends[eip]
	if !ok {
		return ErrNotBound
	}
	be.healthy = healthy
	return nil
}

// Backends returns the bound backends sorted by EIP.
func (b *Balancer) Backends() []*Backend {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.backendsLocked()
}

// backendsLocked is Backends for callers already holding mu.
func (b *Balancer) backendsLocked() []*Backend {
	out := make([]*Backend, 0, len(b.backends))
	for _, be := range b.backends {
		out = append(out, be)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].EIP < out[j].EIP })
	return out
}

// Weights returns every bound backend's weight as of one moment. Unlike
// the *Backend values Backends hands out, it is safe to read beside a
// concurrent Bind, which re-weights a backend in place.
func (b *Balancer) Weights() map[addr.IP]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[addr.IP]int, len(b.backends))
	for eip, be := range b.backends {
		out[eip] = be.Weight
	}
	return out
}

// HealthyCount returns the number of in-rotation backends.
func (b *Balancer) HealthyCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, be := range b.backends {
		if be.Healthy() {
			n++
		}
	}
	return n
}

// Pick selects a backend for a new connection via smooth WRR and marks a
// connection active on it. Callers must Release when the connection ends.
func (b *Balancer) Pick() (*Backend, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.Picks++
	var chosen *Backend
	total := 0
	// Deterministic iteration for reproducibility.
	for _, be := range b.backendsLocked() {
		if !be.Healthy() {
			continue
		}
		be.current += be.Weight
		total += be.Weight
		if chosen == nil || be.current > chosen.current {
			chosen = be
		}
	}
	if chosen == nil {
		b.Errors++
		return nil, fmt.Errorf("lb: no healthy backend for %s", b.SIP)
	}
	chosen.current -= total
	chosen.active++
	return chosen, nil
}

// Preview reports which backend the next Pick would choose, without
// mutating the smooth-WRR counters or connection state — the diagnosis
// path (GET /v1/explain) must replay the decision, not take it.
func (b *Balancer) Preview() (*Backend, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var chosen *Backend
	best := 0
	for _, be := range b.backendsLocked() {
		if !be.Healthy() {
			continue
		}
		if next := be.current + be.Weight; chosen == nil || next > best {
			chosen, best = be, next
		}
	}
	if chosen == nil {
		return nil, fmt.Errorf("lb: no healthy backend for %s", b.SIP)
	}
	return chosen, nil
}

// Release ends a connection on a backend, completing drain when due.
func (b *Balancer) Release(be *Backend) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if be.active > 0 {
		be.active--
	}
	if be.draining && be.active == 0 {
		delete(b.backends, be.EIP)
	}
}

// PickP2C selects a backend by power-of-two-choices on active connection
// count (ablation alternative to smooth WRR: better under heterogeneous
// connection lifetimes, ignores weights). rnd must return a uniform
// int in [0, n).
func (b *Balancer) PickP2C(rnd func(n int) int) (*Backend, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.Picks++
	healthy := make([]*Backend, 0, len(b.backends))
	for _, be := range b.backendsLocked() {
		if be.Healthy() {
			healthy = append(healthy, be)
		}
	}
	if len(healthy) == 0 {
		b.Errors++
		return nil, fmt.Errorf("lb: no healthy backend for %s", b.SIP)
	}
	chosen := healthy[rnd(len(healthy))]
	if len(healthy) > 1 {
		other := healthy[rnd(len(healthy))]
		if other.active < chosen.active {
			chosen = other
		}
	}
	chosen.active++
	return chosen, nil
}
