// Convergence tracking: the dirty sets behind reconciliation sweeps
// (reconcile.go). Every journaled mutation flows through
// Cloud.noteRecorded, called right after Log.Record, which marks the
// mutated (surface, target) dirty for the owning provider, so the next
// sweep checks exactly the touched targets. The fault monitor marks a
// deferred permit update's target when it lands or times out. The Drift*
// chaos hooks deliberately do NOT mark: drift injected behind the
// recorder's back must be caught by the anti-entropy rotation alone,
// which is the bounded-detection-lag guarantee the property test pins.
package core

import (
	"sync"

	"declnet/internal/addr"
	"declnet/internal/intent"
)

// convDirty is one provider's accumulated dirty marks since the last
// sweep consumed them.
type convDirty struct {
	permits map[addr.IP]bool
	binds   map[addr.IP]bool
	quotas  map[string]bool // full intent.QuotaKey form
}

// convTracker is the tracker itself. Its mutex is a leaf: taken only
// for map updates, never while holding it calling out, so any caller —
// Cloud.apply under a verb's shard lock, the fault monitor mid-retry —
// may mark freely.
type convTracker struct {
	mu    sync.Mutex
	dirty map[string]*convDirty
}

func (t *convTracker) dirtyLocked(prov string) *convDirty {
	if t.dirty == nil {
		t.dirty = make(map[string]*convDirty)
	}
	d := t.dirty[prov]
	if d == nil {
		d = &convDirty{
			permits: make(map[addr.IP]bool),
			binds:   make(map[addr.IP]bool),
			quotas:  make(map[string]bool),
		}
		t.dirty[prov] = d
	}
	return d
}

func (t *convTracker) markPermit(prov string, target addr.IP) {
	t.mu.Lock()
	t.dirtyLocked(prov).permits[target] = true
	t.mu.Unlock()
}

func (t *convTracker) markBind(prov string, sip addr.IP) {
	t.mu.Lock()
	t.dirtyLocked(prov).binds[sip] = true
	t.mu.Unlock()
}

func (t *convTracker) markQuota(prov, key string) {
	t.mu.Lock()
	t.dirtyLocked(prov).quotas[key] = true
	t.mu.Unlock()
}

// take consumes and clears a provider's dirty sets; the zero value (nil
// maps, which read as empty) when clean.
func (t *convTracker) take(prov string) convDirty {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.dirty[prov]
	delete(t.dirty, prov)
	if d == nil {
		return convDirty{}
	}
	return *d
}

// noteRecorded marks what a journaled mutation touched. Cloud.apply and
// ApplyBatch call it right after Log.Record, still under the recording
// verb's shard lock (a batch's whole shard set), so anything serialized
// against the mutation — a digest under the global gate, a sweep — sees
// the marks too. It runs even when the append failed: the in-memory
// mutation has happened either way.
// Target->provider resolution uses the static block carving
// (blockOwner), which stays correct even for release ops whose address
// is already gone from the live tables. Verbs with no reconciled
// surface (potato, VM egress caps, groups, names) mark nothing.
func (c *Cloud) noteRecorded(tenant string, ops ...intent.Op) {
	for i := range ops {
		op := &ops[i]
		switch op.Verb {
		case intent.OpRequestEIP, intent.OpRequestSIP:
			c.conv.markPermit(op.Provider, op.Addr)
		case intent.OpReleaseEIP:
			if p, ok := c.blockOwner(op.Addr); ok {
				c.conv.markPermit(p.Name, op.Addr)
			}
		case intent.OpReleaseSIP:
			if p, ok := c.blockOwner(op.Addr); ok {
				c.conv.markPermit(p.Name, op.Addr)
				c.conv.markBind(p.Name, op.Addr)
			}
		case intent.OpBind, intent.OpUnbind:
			if p, ok := c.blockOwner(op.SIP); ok {
				c.conv.markBind(p.Name, op.SIP)
			}
		case intent.OpSetPermit, intent.OpPermit, intent.OpRevoke:
			p, ok := c.pidx.Load().byName[op.Provider]
			if !ok {
				p, ok = c.blockOwner(op.Target)
			}
			if ok {
				c.conv.markPermit(p.Name, op.Target)
			}
		case intent.OpSetQoS:
			c.conv.markQuota(op.Provider, intent.QuotaKey(op.Provider, tenant, op.Region))
		}
	}
}
