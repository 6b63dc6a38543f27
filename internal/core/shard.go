// Sharded write plane. Until this refactor every control-plane mutation
// serialized on one global write lock (the API layer's RWMutex), so a
// tenant onboarding a region's worth of endpoints stalled every other
// tenant's permit updates — the single-writer wall the million-endpoint
// drill (E13) runs straight into. The fix is the arktos-style partition:
// control-plane state is sharded by (tenant, region), each shard carries
// its own RWMutex, and a mutation takes only its shard's lock. Mutations
// in different shards proceed concurrently; a storm confined to one
// (tenant, region) cannot degrade another shard's writes or reads.
//
// Lock hierarchy (outer to inner; never acquire leftward while holding
// rightward):
//
//	Reconciler.sweeping > ShardSet.global > shard.mu (in ShardKey.less
//	order) > engMu > leaf locks (addr.Table stripes,
//	pool/balancer/quota/registry mutexes, the intent log's mutex)
//
// One leaf sits above engMu: a new quota limiter takes engMu inside its
// provider's polMu, so nothing takes polMu while holding engMu.
//
// global is the one world gate: nothing else holds the world still.
// Who takes what:
//
//   - A single Table-2 verb takes global.RLock plus its shard's write
//     lock (lockShard).
//   - A batch takes global.RLock plus the write locks of every shard its
//     ops touch — the set is known before the first op runs — sorted by
//     (tenant, region) and deduplicated (lockShards), and holds them
//     for its whole apply + journal record. The reconciler's bind
//     repair, which spans a SIP's shard and its backends' region
//     shards, locks the same way.
//   - Cross-shard reads (Connect, Probe, Explain) take global.RLock
//     plus BOTH endpoint shards' read locks in the same key order,
//     deduped when the endpoints share a shard (rlockShards).
//   - Readers of engine-owned state alone take global.RLock: the
//     virtual clock (Cloud.Now) and the engine, solver and fault gauges
//     (Cloud.engineRead, which adds engMu).
//   - global.Lock excludes every shard at once and is taken only where
//     the whole world must hold still: set-up (AddProvider,
//     EnableObservability, EnableIntent, EnableSLO), RestoreIntent,
//     StateDigest, and the simulator controls' engine step — the
//     transfer, fail and heal routes advance the engine inside
//     Cloud.Exclusive. No Table-2 mutation takes it. A step must never
//     call a verb (global is not reentrant); the engine callbacks it
//     fires touch leaf locks only.
//   - engMu serializes what global.RLock holders write into the engine
//     and the netsim solver: a new quota limiter's ticker, a deferred
//     permit's first retry, and Connect's flow start and limiter attach.
//
// Every multi-shard acquirer locks in the one total order ShardKey.less
// defines, so batches, single verbs, probes and reconciler repairs
// cannot deadlock against each other.
//
// Underneath the shard locks, the shared structures (the addr.Tables
// of endpoints, services and permit lists, address pools) are striped or
// locked, because one region's state is reachable from several tenants'
// shards. The shard lock is the unit of *contention isolation*; the leaf
// locks are the unit of *memory safety*.
package core

import (
	"sort"
	"sync"
	"sync/atomic"
)

// ShardKey names one control-plane shard: a tenant's slice of one
// provider region. Region is "provider/region" for region-scoped state
// and just "provider" for a tenant's region-free state on that provider
// (the SIP plane, potato profiles, provider-level groups).
type ShardKey struct {
	Tenant string
	Region string
}

// less orders shard keys for deterministic multi-shard acquisition.
func (k ShardKey) less(o ShardKey) bool {
	if k.Tenant != o.Tenant {
		return k.Tenant < o.Tenant
	}
	return k.Region < o.Region
}

type shard struct {
	mu sync.RWMutex
}

// ShardSet is the cloud's shard table. Shards materialize lazily on
// first touch; the zero set is sharded, NewSingleShardCloud collapses
// every key onto one shard (the unsharded build the parity property
// test replays against). Finding a shard that exists takes no lock —
// every verb and every probe looks one up, so a mutex here would be the
// one point where a storm in one shard still slowed another's reads.
type ShardSet struct {
	global sync.RWMutex
	shards sync.Map // ShardKey -> *shard
	n      atomic.Int64
	single *shard
}

func newShardSet(single bool) *ShardSet {
	s := &ShardSet{}
	if single {
		s.single = &shard{}
	}
	return s
}

// shardOf returns (creating on first use) the shard for k.
func (s *ShardSet) shardOf(k ShardKey) *shard {
	if s.single != nil {
		return s.single
	}
	if sh, ok := s.shards.Load(k); ok {
		return sh.(*shard)
	}
	sh, loaded := s.shards.LoadOrStore(k, &shard{})
	if !loaded {
		s.n.Add(1)
	}
	return sh.(*shard)
}

// Len reports how many shards have materialized (single mode reports 1
// unconditionally).
func (s *ShardSet) Len() int {
	if s.single != nil {
		return 1
	}
	return int(s.n.Load())
}

// lockShard takes the write lock for one shard (plus the global read
// gate) and returns the unlock.
func (s *ShardSet) lockShard(k ShardKey) func() {
	s.global.RLock()
	sh := s.shardOf(k)
	sh.mu.Lock()
	return func() {
		sh.mu.Unlock()
		s.global.RUnlock()
	}
}

// lockShards takes the write locks for a set of shards (plus the global
// read gate) and returns the unlock: a batch's whole footprint, held
// from before its first op to after its journal record. The keys are
// sorted in place into ShardKey.less order — the order rlockShards uses
// — and deduplicated by shard identity (repeated keys; every key, on a
// single-shard cloud), since sync.RWMutex is not reentrant.
func (s *ShardSet) lockShards(keys []ShardKey) func() {
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	s.global.RLock()
	held := make([]*shard, 0, len(keys))
	for _, k := range keys {
		sh := s.shardOf(k)
		if n := len(held); n > 0 && held[n-1] == sh {
			continue
		}
		sh.mu.Lock()
		held = append(held, sh)
	}
	return func() {
		for i := len(held) - 1; i >= 0; i-- {
			held[i].mu.Unlock()
		}
		s.global.RUnlock()
	}
}

// rlockShards takes the read locks for a pair of shards in deterministic
// key order (plus the global read gate) and returns the unlock. The two
// keys are the cross-shard connect protocol: src's shard and dst's
// shard, sorted by (tenant, region) and deduped by shard identity —
// sync.RWMutex is not reentrant even for readers once a writer queues,
// so the same shard must be locked exactly once.
func (s *ShardSet) rlockShards(a, b ShardKey) func() {
	if b.less(a) {
		a, b = b, a
	}
	s.global.RLock()
	sa, sb := s.shardOf(a), s.shardOf(b)
	sa.mu.RLock()
	if sb != sa {
		sb.mu.RLock()
	}
	return func() {
		if sb != sa {
			sb.mu.RUnlock()
		}
		sa.mu.RUnlock()
		s.global.RUnlock()
	}
}

// lockGlobal takes the exclusive gate: every shard's readers and writers
// drain first, and none may enter until the returned unlock runs. For
// set-up, restore, the state digest and engine steps only (see the
// hierarchy above).
func (s *ShardSet) lockGlobal() func() {
	s.global.Lock()
	return s.global.Unlock
}

// rlockGlobal takes the gate's read side alone: no exclusive step runs
// until the returned unlock.
func (s *ShardSet) rlockGlobal() func() {
	s.global.RLock()
	return s.global.RUnlock
}
