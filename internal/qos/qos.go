// Package qos implements the QoS half of the paper's proposal (§4):
// per-VM egress caps (token buckets), per-tenant regional egress
// bandwidth guarantees enforced by a distributed rate limiter in the
// spirit of the paper's citations (BwE/EyeQ/HUG), and hot/cold-potato
// exit-path selection for traffic leaving the cloud.
//
// §6(i) asks "can egress bandwidth quotas be scalably enforced?" — the
// DistributedLimiter answers it by periodically redistributing a regional
// quota across enforcement points proportionally to measured demand, and
// the E5 experiment reports its enforcement error as flows churn.
package qos

import (
	"fmt"
	"math"
	"time"

	"declnet/internal/topo"
)

// TokenBucket is a classic policer: rate tokens/s, burst capacity, refill
// on demand from a virtual clock.
type TokenBucket struct {
	Rate  float64 // tokens (bits) per second
	Burst float64 // bucket depth in tokens

	tokens float64
	last   time.Duration
	primed bool
}

// NewTokenBucket returns a full bucket.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	return &TokenBucket{Rate: rate, Burst: burst, tokens: burst}
}

func (b *TokenBucket) refill(now time.Duration) {
	if !b.primed {
		b.last = now
		b.primed = true
		return
	}
	dt := (now - b.last).Seconds()
	if dt > 0 {
		b.tokens += b.Rate * dt
		if b.tokens > b.Burst {
			b.tokens = b.Burst
		}
		b.last = now
	}
}

// Take consumes n tokens if available, reporting success.
func (b *TokenBucket) Take(now time.Duration, n float64) bool {
	b.refill(now)
	if n > b.tokens {
		return false
	}
	b.tokens -= n
	return true
}

// Available reports the current token count.
func (b *TokenBucket) Available(now time.Duration) float64 {
	b.refill(now)
	return b.tokens
}

// Flow is one flow running in the data plane, as the connection that
// started it and the limiter that shapes it see it.
type Flow interface {
	// SetMaxRate caps the flow in bits/s (0 = uncapped).
	SetMaxRate(bps float64)
	// Rate is the flow's current rate in bits/s; SentBytes what it has
	// sent so far.
	Rate() float64
	SentBytes() float64
	// Done reports a sized flow's completion; Stop ends the flow.
	Done() bool
	Stop()
}

// RateSetter is what a limiter needs from a flow: the ability to cap its
// rate. A Flow satisfies it through the adapter in package core, which
// adds the per-VM cap and the offered demand; tests use fakes.
type RateSetter interface {
	// SetCap sets the enforcement cap in bits/s (0 = uncapped).
	SetCap(bps float64)
	// Demand returns the flow's current offered load in bits/s (what it
	// would send if uncapped).
	Demand() float64
}

// Enforcer is one enforcement point (host or edge) of a distributed
// limiter, shaping some set of flows.
type Enforcer struct {
	ID string
	// flows maps each shaped flow to its current grant in bits/s. A flow
	// attached between control rounds has only the probing minimum until
	// the controller runs again — the undershoot E5 measures.
	flows map[RateSetter]float64
	alloc float64 // current allocation from the controller, bits/s
	// down marks an enforcement point the controller cannot reach (its
	// host or region failed). Down enforcers are excluded from quota
	// redistribution so survivors re-share the regional guarantee.
	down bool
}

// NewEnforcer returns an empty enforcement point.
func NewEnforcer(id string) *Enforcer {
	return &Enforcer{ID: id, flows: make(map[RateSetter]float64)}
}

// SetUp marks the enforcement point reachable or partitioned. Going down
// zeroes its allocation immediately (its flows are stalled anyway); going
// up leaves it at the probing minimum until the next control round.
func (e *Enforcer) SetUp(up bool) {
	if e.down != !up {
		e.down = !up
		if e.down {
			e.alloc = 0
		}
	}
}

// Up reports whether the enforcement point is reachable.
func (e *Enforcer) Up() bool { return !e.down }

// Attach adds a flow to be shaped. Until the next control round it may
// send only the probing minimum.
func (e *Enforcer) Attach(f RateSetter) {
	e.flows[f] = minGrant
	f.SetCap(minGrant)
}

// Detach removes a flow, stranding its grant until the next round.
func (e *Enforcer) Detach(f RateSetter) {
	delete(e.flows, f)
	f.SetCap(0)
}

// ActualRate returns what the attached flows are really sending:
// min(grant, demand) summed over live flows. Compare with the
// controller's intended allocation for enforcement error.
func (e *Enforcer) ActualRate() float64 {
	var sum float64
	for f, grant := range e.flows {
		sum += math.Min(grant, f.Demand())
	}
	return sum
}

// Demand returns the enforcement point's total offered load.
func (e *Enforcer) Demand() float64 {
	var d float64
	for f := range e.flows {
		d += f.Demand()
	}
	return d
}

// Flows returns the number of attached flows.
func (e *Enforcer) Flows() int { return len(e.flows) }

// Allocation returns the controller's current grant.
func (e *Enforcer) Allocation() float64 { return e.alloc }

// apply divides the allocation across local flows max-min fairly
// (waterfill over per-flow demand).
func (e *Enforcer) apply() {
	n := len(e.flows)
	if n == 0 {
		return
	}
	remaining := e.alloc
	pend := make([]fd, 0, n)
	for f := range e.flows {
		pend = append(pend, fd{f, f.Demand()})
	}
	// Deterministic order not required for correctness (shares are fully
	// determined by demands), but sort keeps runs reproducible.
	sortByDemand(pend)
	for i, p := range pend {
		left := len(pend) - i
		share := remaining / float64(left)
		grant := math.Max(math.Min(share, p.d), minGrant)
		// Steady-state rounds recompute the same grants; skipping the
		// redundant SetCap keeps the data plane's fair-share solver from
		// resharing on no-op cap churn every control period.
		if e.flows[p.f] != grant {
			e.flows[p.f] = grant
			p.f.SetCap(grant)
		}
		remaining -= grant
	}
}

// minGrant keeps a token of bandwidth on every flow so demand estimation
// never starves completely (EyeQ-style probing headroom).
const minGrant = 1e3 // 1 kbps

// fd pairs a flow with its sampled demand during a waterfill round.
type fd struct {
	f RateSetter
	d float64
}

func sortByDemand(s []fd) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].d < s[j-1].d; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// DistributedLimiter enforces one regional quota across many enforcement
// points. A central controller wakes every period, reads each enforcer's
// demand, and redistributes the quota proportionally to demand with a
// max-min waterfill; each enforcer then subdivides its grant locally.
// This is the BwE-lite control loop the paper's QoS section leans on.
// The limiter keeps no clock: its owner calls Redistribute every Period.
type DistributedLimiter struct {
	Quota  float64 // bits/s for the whole region
	Period time.Duration

	enforcers []*Enforcer
	// Rounds counts controller iterations; a cost metric for E5.
	Rounds uint64
}

// NewDistributedLimiter returns a limiter over the given enforcement
// points, to be redistributed every period.
func NewDistributedLimiter(quota float64, period time.Duration, enforcers ...*Enforcer) *DistributedLimiter {
	if period <= 0 {
		panic("qos: non-positive redistribution period")
	}
	return &DistributedLimiter{Quota: quota, Period: period, enforcers: enforcers}
}

// AddEnforcer registers another enforcement point with the controller
// (endpoints appear as tenants launch instances, so the set is dynamic).
func (d *DistributedLimiter) AddEnforcer(e *Enforcer) {
	d.enforcers = append(d.enforcers, e)
}

// SetQuota changes the regional guarantee (the set_qos verb) and takes
// effect at the next redistribution round.
func (d *DistributedLimiter) SetQuota(quota float64) { d.Quota = quota }

// Redistribute runs one controller round immediately. Partitioned
// (down) enforcers are excluded: their demand does not count and their
// allocation stays zero, so the surviving points re-share the quota —
// graceful degradation under region failure.
func (d *DistributedLimiter) Redistribute() {
	d.Rounds++
	demands := make([]float64, len(d.enforcers))
	var total float64
	for i, e := range d.enforcers {
		if e.down {
			continue
		}
		demands[i] = e.Demand()
		total += demands[i]
	}
	if total <= d.Quota {
		// Everyone gets their demand; unsated quota stays in reserve.
		for i, e := range d.enforcers {
			if e.down {
				continue
			}
			e.alloc = demands[i]
			e.apply()
		}
		return
	}
	// Max-min waterfill across enforcers by demand.
	remaining := d.Quota
	idx := make([]int, 0, len(d.enforcers))
	for i, e := range d.enforcers {
		if !e.down {
			idx = append(idx, i)
		}
	}
	// Insertion sort by demand ascending for the waterfill.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && demands[idx[j]] < demands[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	for k, i := range idx {
		left := len(idx) - k
		share := remaining / float64(left)
		grant := math.Min(share, demands[i])
		d.enforcers[i].alloc = grant
		d.enforcers[i].apply()
		remaining -= grant
	}
}

// AggregateRate returns the sum of enforcer allocations (the controller's
// intent).
func (d *DistributedLimiter) AggregateRate() float64 {
	var sum float64
	for _, e := range d.enforcers {
		sum += e.alloc
	}
	return sum
}

// AggregateActual returns what the live flows are really sending:
// min(grant, demand) summed across every enforcement point. Between
// control rounds this diverges from the intent as flows come and go —
// stranded grants undershoot, and a just-departed-then-arrived pattern
// starves newcomers.
func (d *DistributedLimiter) AggregateActual() float64 {
	var sum float64
	for _, e := range d.enforcers {
		if e.down {
			continue
		}
		sum += e.ActualRate()
	}
	return sum
}

// EnforcementError returns |actual - min(quota, demand)| / quota: the
// relative deviation of real transmission from the ideal instantaneous
// limiter. This is the figure of merit for §6(i)'s "can egress bandwidth
// quotas be scalably enforced?".
func (d *DistributedLimiter) EnforcementError() float64 {
	var demand float64
	for _, e := range d.enforcers {
		if e.down {
			continue
		}
		demand += e.Demand()
	}
	ideal := math.Min(d.Quota, demand)
	if ideal == 0 {
		return 0
	}
	return math.Abs(d.AggregateActual()-ideal) / d.Quota
}

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
