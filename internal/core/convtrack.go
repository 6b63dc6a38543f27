// Convergence tracking: the dirty sets behind reconciliation sweeps
// (reconcile.go). Every journaled mutation flows through
// Cloud.noteRecorded, called right after Log.Record, which marks the
// mutated (surface, target) dirty, so the next sweep checks exactly the
// touched targets. A mark names the target alone: which provider checks
// it is the sweep's question, answered by the same ownership test it
// applies to the rotation's targets. The fault monitor marks a deferred
// permit update's target when it lands or times out. The Drift* chaos
// hooks deliberately do NOT mark: drift injected behind the recorder's
// back must be caught by the anti-entropy rotation alone, which is the
// bounded-detection-lag guarantee the property test pins.
package core

import (
	"sync"

	"declnet/internal/addr"
	"declnet/internal/intent"
)

// convDirty is the dirty marks accumulated since the last sweep consumed
// them; a nil set reads as empty.
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
	dirty convDirty
}

// mark adds key to one of t's sets under t's mutex.
func mark[K comparable](t *convTracker, set *map[K]bool, key K) {
	t.mu.Lock()
	if *set == nil {
		*set = make(map[K]bool)
	}
	(*set)[key] = true
	t.mu.Unlock()
}

func (t *convTracker) markPermit(target addr.IP) { mark(t, &t.dirty.permits, target) }
func (t *convTracker) markBind(sip addr.IP)      { mark(t, &t.dirty.binds, sip) }
func (t *convTracker) markQuota(key string)      { mark(t, &t.dirty.quotas, key) }

// take consumes and clears the dirty sets.
func (t *convTracker) take() convDirty {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.dirty
	t.dirty = convDirty{}
	return d
}

// noteRecorded marks what a journaled mutation touched. Cloud.apply and
// ApplyBatch call it right after Log.Record, still under the recording
// verb's shard lock (a batch's whole shard set), so anything serialized
// against the mutation — a digest under the global gate, a sweep — sees
// the marks too. It runs even when the append failed: the in-memory
// mutation has happened either way. Verbs with no reconciled surface
// (potato, VM egress caps, groups, names) mark nothing.
func (c *Cloud) noteRecorded(tenant string, ops ...intent.Op) {
	for i := range ops {
		op := &ops[i]
		switch op.Verb {
		case intent.OpRequestEIP, intent.OpRequestSIP, intent.OpReleaseEIP:
			c.conv.markPermit(op.Addr)
		case intent.OpReleaseSIP:
			c.conv.markPermit(op.Addr)
			c.conv.markBind(op.Addr)
		case intent.OpBind, intent.OpUnbind:
			c.conv.markBind(op.SIP)
		case intent.OpSetPermit, intent.OpPermit, intent.OpRevoke:
			c.conv.markPermit(op.Target)
		case intent.OpSetQoS:
			c.conv.markQuota(intent.QuotaKey(op.Provider, tenant, op.Region))
		}
	}
}
