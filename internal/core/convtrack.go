// Convergence tracking: the dirty sets and section versions behind
// reconciliation sweeps (reconcile.go) and the incremental state
// digest (intent.go). Every journaled mutation flows through
// Cloud.noteRecorded — the intent log's record hook — which (a) marks
// the mutated (surface, target) dirty for the owning provider, so the
// next sweep checks exactly the touched targets, and (b)
// bumps the digest section version the mutation lands in, so the next
// StateDigest recomputes only that section. Live mutations that bypass
// the journal — reconciler repairs, fault-deferred permit landings, the
// Drift* chaos hooks — bump versions at their own call sites. The Drift*
// hooks deliberately do NOT mark dirty sets: drift injected behind the
// recorder's back must be caught by the anti-entropy rotation alone,
// which is the bounded-detection-lag guarantee the property test pins.
package core

import (
	"crypto/sha256"
	"sync"

	"declnet/internal/addr"
	"declnet/internal/intent"
)

// convScope names one digest/sweep section. kind 'r' is a (provider,
// region) scope: the region's endpoints, its permit lists, and its pool
// cursor. kind 's' is a provider's SIP plane: services, binds, SIP
// permit lists, and the SIP pool cursor. kind 'p' is a provider's
// policy plane: quotas, potato profiles, groups. kind 'c' is the
// cloud-level plane: cross-provider groups and names.
type convScope struct {
	kind   byte
	prov   string
	region string
}

func regionScope(prov, region string) convScope {
	return convScope{kind: 'r', prov: prov, region: region}
}
func sipScope(prov string) convScope { return convScope{kind: 's', prov: prov} }
func polScope(prov string) convScope { return convScope{kind: 'p', prov: prov} }
func cloudScope() convScope          { return convScope{kind: 'c'} }

// convDirty is one provider's accumulated dirty marks since the last
// sweep consumed them.
type convDirty struct {
	permits map[addr.IP]bool
	binds   map[addr.IP]bool
	quotas  map[string]bool // full intent.QuotaKey form
}

// convTracker is the tracker itself. Its mutex is a leaf: taken only
// for map updates, never while holding it calling out, so any caller —
// Cloud.apply under a verb's shard lock, RestoreIntent under the global
// gate, the reconciler mid-repair — may mark or bump freely.
type convTracker struct {
	mu    sync.Mutex
	gen   uint64 // bumped by invalidateAll; part of every cache key
	ver   map[convScope]uint64
	dirty map[string]*convDirty
}

func (t *convTracker) initLocked() {
	if t.ver == nil {
		t.ver = make(map[convScope]uint64)
		t.dirty = make(map[string]*convDirty)
	}
}

func (t *convTracker) dirtyLocked(prov string) *convDirty {
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
	t.initLocked()
	t.dirtyLocked(prov).permits[target] = true
	t.mu.Unlock()
}

func (t *convTracker) markBind(prov string, sip addr.IP) {
	t.mu.Lock()
	t.initLocked()
	t.dirtyLocked(prov).binds[sip] = true
	t.mu.Unlock()
}

func (t *convTracker) markQuota(prov, key string) {
	t.mu.Lock()
	t.initLocked()
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

func (t *convTracker) bump(s convScope) {
	t.mu.Lock()
	t.initLocked()
	t.ver[s]++
	t.mu.Unlock()
}

// version returns the (generation, version) pair a cached digest of
// scope s is valid against.
func (t *convTracker) version(s convScope) (gen, ver uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gen, t.ver[s]
}

// invalidateAll retires every outstanding cached section digest at once
// (EnableIntent, RestoreIntent: the world may have changed wholesale
// without per-scope bumps).
func (t *convTracker) invalidateAll() {
	t.mu.Lock()
	t.gen++
	t.mu.Unlock()
}

// digestCache memoizes per-section digest sums keyed by the tracker's
// (generation, version) at compute time.
type digestCache struct {
	mu sync.Mutex
	m  map[convScope]digestEntry
}

type digestEntry struct {
	gen, ver uint64
	sum      [sha256.Size]byte
}

func (dc *digestCache) get(s convScope, gen, ver uint64) ([sha256.Size]byte, bool) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	e, ok := dc.m[s]
	if !ok || e.gen != gen || e.ver != ver {
		return [sha256.Size]byte{}, false
	}
	return e.sum, true
}

func (dc *digestCache) put(s convScope, gen, ver uint64, sum [sha256.Size]byte) {
	dc.mu.Lock()
	if dc.m == nil {
		dc.m = make(map[convScope]digestEntry)
	}
	dc.m[s] = digestEntry{gen: gen, ver: ver, sum: sum}
	dc.mu.Unlock()
}

// convBumpTarget bumps the digest scope a target address lives in:
// its region scope for EIPs, the owning provider's SIP plane otherwise.
func (c *Cloud) convBumpTarget(p *Provider, ip addr.IP) {
	if region := p.regionOf(ip); region != "" {
		c.conv.bump(regionScope(p.Name, region))
		return
	}
	c.conv.bump(sipScope(p.Name))
}

// convMarkPermit is convBumpTarget's dirty-set twin for permit targets.
func (c *Cloud) convMarkPermit(p *Provider, target addr.IP) {
	c.conv.markPermit(p.Name, target)
}

// noteRecorded is the intent log's record hook (Log.SetOnRecord): it
// runs after each journaled record's in-memory apply, still under the
// recording verb's shard lock (a batch's whole shard set), so a
// concurrent StateDigest — which takes the global gate — always sees
// the bump and the mutation together. Target->provider resolution uses
// the static block carving (blockOwner), which stays correct even for
// release ops whose address is already gone from the live tables.
func (c *Cloud) noteRecorded(tenant string, ops []intent.Op) {
	for i := range ops {
		op := &ops[i]
		switch op.Verb {
		case intent.OpRequestEIP:
			c.conv.bump(regionScope(op.Provider, op.Region))
			c.conv.markPermit(op.Provider, op.Addr)
		case intent.OpReleaseEIP:
			if p, ok := c.blockOwner(op.Addr); ok {
				c.convBumpTarget(p, op.Addr)
				// The release drained the EIP out of every balancer it was
				// bound to, which lives in the SIP-plane section.
				c.conv.bump(sipScope(p.Name))
				c.conv.markPermit(p.Name, op.Addr)
			}
		case intent.OpRequestSIP:
			c.conv.bump(sipScope(op.Provider))
			c.conv.markPermit(op.Provider, op.Addr)
		case intent.OpReleaseSIP:
			if p, ok := c.blockOwner(op.Addr); ok {
				c.conv.bump(sipScope(p.Name))
				c.conv.markPermit(p.Name, op.Addr)
				c.conv.markBind(p.Name, op.Addr)
			}
		case intent.OpBind, intent.OpUnbind:
			if p, ok := c.blockOwner(op.SIP); ok {
				c.conv.bump(sipScope(p.Name))
				c.conv.markBind(p.Name, op.SIP)
			}
		case intent.OpSetPermit, intent.OpPermit, intent.OpRevoke:
			p, ok := c.pidx.Load().byName[op.Provider]
			if !ok {
				p, ok = c.blockOwner(op.Target)
			}
			if ok {
				c.convBumpTarget(p, op.Target)
				c.conv.markPermit(p.Name, op.Target)
			}
		case intent.OpSetQoS:
			c.conv.bump(polScope(op.Provider))
			c.conv.markQuota(op.Provider, intent.QuotaKey(op.Provider, tenant, op.Region))
		case intent.OpSetPotato:
			c.conv.bump(polScope(op.Provider))
		case intent.OpSetVMEgress:
			if p, ok := c.blockOwner(op.EIP); ok {
				c.convBumpTarget(p, op.EIP)
			}
		case intent.OpCreateGroup:
			if op.Provider != "" {
				c.conv.bump(polScope(op.Provider))
			} else {
				c.conv.bump(cloudScope())
			}
		case intent.OpRegisterName, intent.OpUnregisterName:
			c.conv.bump(cloudScope())
		}
	}
}
