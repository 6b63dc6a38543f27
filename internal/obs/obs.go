// Package obs is the provider-side observability plane: structured
// decision tracing for every datapath and control-plane verdict the
// provider takes on a tenant's behalf. The paper's §6 asks who diagnoses
// problems once VPCs and appliances disappear behind the declarative
// interface — the tenant "lacks visibility", so the provider must supply
// it. This package is the supply side: each permit match or deny, SIP
// backend selection, QoS throttle, path choice, and failover rebind
// records a trace Event with a virtual timestamp and a cause chain, into
// a bounded per-tenant ring buffer the /v1/trace and /v1/explain
// endpoints read back.
//
// A nil *Tracer is valid and records nothing, so instrumented code paths
// pay only a nil check when observability is disabled (the stripped arm
// of experiment E12).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind classifies a trace event.
type Kind string

// The provider-side decision kinds. Every verdict the datapath or the
// failure-reaction loop takes on a tenant's behalf maps to exactly one.
const (
	// PermitAllow / PermitDeny are default-off admission verdicts: which
	// entry matched (and at which propagation epoch), or why nothing did.
	PermitAllow Kind = "permit-allow"
	PermitDeny  Kind = "permit-deny"
	// PermitUpdate is a set_permit_list landing immediately; PermitDefer,
	// PermitApply, and PermitTimeout track the deferred-retry lifecycle
	// of updates targeting unreachable enforcement points.
	PermitUpdate  Kind = "permit-update"
	PermitDefer   Kind = "permit-defer"
	PermitApply   Kind = "permit-apply"
	PermitTimeout Kind = "permit-timeout"
	// SIPPick is a load-balancer backend selection for a service IP.
	SIPPick Kind = "sip-pick"
	// PathSelect is a potato-profile path choice.
	PathSelect Kind = "path-select"
	// QoSThrottle is a flow coming under regional egress enforcement.
	QoSThrottle Kind = "qos-throttle"
	// Failover / Rebind are the health monitor pulling a SIP backend from
	// rotation and restoring it.
	Failover Kind = "failover"
	Rebind   Kind = "rebind"
	// Explain is a tenant-requested decision replay (GET /v1/explain).
	Explain Kind = "explain"
	// SLOBreach is the SLO plane flagging a shard whose windowed p99
	// breached its trailing baseline, with the suspected noisy neighbor
	// in the cause chain.
	SLOBreach Kind = "slo-breach"
	// Reconcile is the desired-state engine repairing dataplane drift,
	// the divergence it closed in the cause chain
	// ("reconcile:permit:10.0.0.3 <- drift:missing-entries").
	Reconcile Kind = "reconcile"
)

// Event is one structured provider-side decision.
type Event struct {
	// Seq is a tracer-global monotonic sequence number; events across
	// tenants interleave in Seq order.
	Seq uint64 `json:"seq"`
	// At is the virtual time of the decision.
	At time.Duration `json:"at_ns"`
	// Tenant is the account the decision concerns.
	Tenant string `json:"tenant"`
	Kind   Kind   `json:"kind"`
	// Src and Dst are the flow endpoints of the decision, when it has
	// them (addresses, or node IDs for infrastructure events).
	Src string `json:"src,omitempty"`
	Dst string `json:"dst,omitempty"`
	// Verdict is the outcome: "ok", "deny", "fail", ...
	Verdict string `json:"verdict"`
	// Detail is a human-readable elaboration (matched entry, epoch,
	// chosen backend, path summary).
	Detail string `json:"detail,omitempty"`
	// Cause is the cause chain for negative verdicts, innermost last,
	// e.g. "no-healthy-backend:104.255.0.1 <- region-down:cloudB/b-east".
	Cause string `json:"cause,omitempty"`
}

// String renders the event for logs.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%v] #%d %s %s %s", e.At, e.Seq, e.Tenant, e.Kind, e.Verdict)
	if e.Src != "" || e.Dst != "" {
		fmt.Fprintf(&b, " %s->%s", e.Src, e.Dst)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " (%s)", e.Detail)
	}
	if e.Cause != "" {
		fmt.Fprintf(&b, " cause=%s", e.Cause)
	}
	return b.String()
}

// Chain joins cause links into the canonical cause-chain string,
// outermost effect first: Chain("no-healthy-backend:x", "node-down:y").
func Chain(causes ...string) string { return strings.Join(causes, " <- ") }

// Ring is the module's one bounded overwrite-oldest buffer: the tracer
// keeps one per tenant and the SLO plane's flight recorder one of spans.
// It grows by append until it holds max items and wraps from then on, so
// a ring costs what it has recorded, not the bound. The zero value is
// ready; callers serialize access.
type Ring[T any] struct {
	buf  []T
	next int // the oldest item, once len(buf) == max
}

// Push appends v, overwriting the oldest item once the ring holds max.
func (r *Ring[T]) Push(v T, max int) (evicted bool) {
	switch {
	case len(r.buf) == max:
		r.buf[r.next] = v
		r.next = (r.next + 1) % max
		return true
	case len(r.buf) == cap(r.buf) && 2*len(r.buf) > max:
		// append's next doubling would overshoot the bound: stop at it.
		r.buf = append(make([]T, 0, max), r.buf...)
	}
	r.buf = append(r.buf, v)
	return false
}

// Last returns a copy of up to n of the newest items, oldest first (all
// of them when n <= 0); nil when the ring is empty.
func (r *Ring[T]) Last(n int) []T {
	if n <= 0 || n > len(r.buf) {
		n = len(r.buf)
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for i := len(r.buf) - n; i < len(r.buf); i++ {
		out = append(out, r.buf[(r.next+i)%len(r.buf)])
	}
	return out
}

// Len reports how many items the ring holds.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Tracer records decision events into one bounded ring buffer per tenant,
// so a chatty tenant cannot grow provider memory or evict another
// tenant's history. Safe for concurrent use. The zero value is NOT ready;
// use NewTracer. A nil *Tracer records nothing.
type Tracer struct {
	mu     sync.Mutex
	cap    int
	rings  map[string]*Ring[Event]
	seq    uint64
	nStamp uint64 // events recorded (not evicted)
	nDrop  uint64 // events overwritten by ring wraparound

	// lastTenant/lastRing memoize the map lookup for the common case of
	// many consecutive events from one tenant (guarded by mu).
	lastTenant string
	lastRing   *Ring[Event]
}

// DefaultPerTenantCap bounds each tenant's ring when NewTracer is given
// a non-positive capacity.
const DefaultPerTenantCap = 1024

// NewTracer returns a tracer keeping at most perTenantCap events per
// tenant (DefaultPerTenantCap if <= 0).
func NewTracer(perTenantCap int) *Tracer {
	if perTenantCap <= 0 {
		perTenantCap = DefaultPerTenantCap
	}
	return &Tracer{cap: perTenantCap, rings: make(map[string]*Ring[Event])}
}

// Record stamps the event with the next sequence number and appends it to
// the tenant's ring, evicting the oldest event when full. Nil-safe: a nil
// tracer records nothing and returns 0.
func (t *Tracer) Record(ev Event) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	ev.Seq = t.seq
	r := t.lastRing
	if r == nil || t.lastTenant != ev.Tenant {
		var ok bool
		if r, ok = t.rings[ev.Tenant]; !ok {
			r = &Ring[Event]{}
			t.rings[ev.Tenant] = r
		}
		t.lastTenant, t.lastRing = ev.Tenant, r
	}
	if r.Push(ev, t.cap) {
		t.nDrop++
	}
	t.nStamp++
	return ev.Seq
}

// Recent returns up to n of the tenant's most recent events, oldest
// first (all buffered events when n <= 0). Nil-safe.
func (t *Tracer) Recent(tenant string, n int) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.rings[tenant]
	if !ok {
		return nil
	}
	return r.Last(n)
}

// Len reports how many events the tenant's ring currently holds.
func (t *Tracer) Len(tenant string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.rings[tenant]
	if !ok {
		return 0
	}
	return r.Len()
}

// Recorded returns the total events ever recorded; Evicted how many were
// overwritten by ring wraparound. Nil-safe.
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nStamp
}

// Evicted returns how many events ring wraparound has overwritten.
func (t *Tracer) Evicted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nDrop
}

// Drop releases the tenant's ring. Called when a tenant's last address
// is released: without eviction the rings map only ever grows, so a
// workload that churns through short-lived tenants leaks one ring
// (cap × sizeof(Event)) per tenant forever. Events already buffered
// for the tenant are discarded; a later Record for the same tenant
// starts a fresh ring. Nil-safe.
func (t *Tracer) Drop(tenant string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.rings, tenant)
	if t.lastTenant == tenant {
		// Invalidate the lookup memo or the next Record for this tenant
		// would write into the orphaned ring.
		t.lastTenant, t.lastRing = "", nil
	}
}

// Tenants returns the tenants with buffered events, sorted.
func (t *Tracer) Tenants() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.rings))
	for name := range t.rings {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
