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
//	Reconciler.sweeping > shard.mu (in ShardKey.less order) > the
//	declared state's lock (the intent log's mutex) > leaf locks
//	(addr.Table stripes, balancer/quota/registry mutexes, and the data
//	plane's own)
//
// A mutation checks, folds and installs each op holding the declared
// state's lock (Cloud.apply), so what an install takes — a provider's
// polMu, the leaves — sits below it. The address pools are the declared
// state's (intent.PoolState): a grant reads its address off its pool and
// the fold moves the cursor, both under that lock, so the pools take no
// lock of their own. The data plane (dataplane.go)
// serializes what verbs and reads hand it behind a lock of its own,
// which it takes inside any of core's and holds across no call back
// into core: a set_qos reaches DataPlane.Apply inside the declared
// state's lock, and the connect step's data-plane half runs inside both
// endpoints' shard read locks. The simulator's is simplane.Plane.mu.
//
// Who takes what:
//
//   - A Table-2 mutation, a single verb or a batch (Cloud.apply), takes
//     the write locks of every shard its ops touch — the set is known
//     before the first op runs; a bind adds its EIP's shard
//     (Cloud.eipShard) — sorted by (tenant, region) and deduplicated
//     (lockShards), and holds them for its whole apply + journal record;
//     inside them it holds the declared state's lock across its ops'
//     checks, folds, installs and the journal record (intent.Frame).
//     The reconciler's bind repair, which spans a SIP's shard and its
//     backends' region shards, locks the same way; its other repairs
//     take one shard's write lock (lockShard).
//   - Cross-shard reads (Connect, Probe, Explain) take BOTH endpoint
//     shards' read locks in the same key order, deduped when the
//     endpoints share a shard (rlockShards).
//   - Core holds no lock over the data plane: an installed quota, a
//     deferred permit and a connection's flow are the data plane's,
//     which serializes them (a cloud built with NoDataPlane writes
//     nothing).
//
// Nothing holds the whole world still, so three kinds of work run only
// where no verb or read runs beside them, each as its doc states:
// set-up (AddProvider, EnableObservability, EnableIntent, EnableSLO,
// EnableReconciler) and RestoreIntent run before the world is shared;
// StateDigest runs on a quiesced world; and advancing the simulated data
// plane (World.Run, RunFor, Fail, Heal) is the simulation driver's, from
// one goroutine with no request in flight. No request path can advance
// it: declnetd links no simulator (`make nobaseline`).
//
// Every multi-shard acquirer locks in the one total order ShardKey.less
// defines, so batches, single verbs, probes and reconciler repairs
// cannot deadlock against each other.
//
// Underneath the shard locks, the shared structures (the declared
// state's addr.Tables of endpoints and services, the installed ones of
// balancers and permit lists) are striped or locked, because one
// region's state is reachable from several tenants' shards. The shard lock is the unit of *contention isolation*; the leaf
// locks are the unit of *memory safety*.
package core

import (
	"slices"
	"strings"
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

// compare orders shard keys for deterministic multi-shard acquisition.
func (k ShardKey) compare(o ShardKey) int {
	if c := strings.Compare(k.Tenant, o.Tenant); c != 0 {
		return c
	}
	return strings.Compare(k.Region, o.Region)
}

func (k ShardKey) less(o ShardKey) bool { return k.compare(o) < 0 }

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

// lockShard takes the write lock for one shard and returns the unlock.
func (s *ShardSet) lockShard(k ShardKey) func() {
	sh := s.shardOf(k)
	sh.mu.Lock()
	return sh.mu.Unlock
}

// lockShards takes the write locks for a set of shards, appends the
// shards it locked to held and returns it for unlockShards: a batch's
// whole footprint, held from before its first op to after its journal
// record. The keys are sorted in place into
// ShardKey.less order — the order rlockShards uses — and deduplicated by
// shard identity (repeated keys; every key, on a single-shard cloud),
// since sync.RWMutex is not reentrant. With room in held and a sorted
// key set it allocates nothing.
func (s *ShardSet) lockShards(keys []ShardKey, held []*shard) []*shard {
	slices.SortFunc(keys, ShardKey.compare)
	for _, k := range keys {
		sh := s.shardOf(k)
		if n := len(held); n > 0 && held[n-1] == sh {
			continue
		}
		sh.mu.Lock()
		held = append(held, sh)
	}
	return held
}

// unlockShards releases what lockShards took.
func (s *ShardSet) unlockShards(held []*shard) {
	for i := len(held) - 1; i >= 0; i-- {
		held[i].mu.Unlock()
	}
}

// rlockShards takes the read locks for a pair of shards in deterministic
// key order and returns the unlock. The two keys are the cross-shard
// connect protocol: src's shard and dst's shard, sorted by (tenant,
// region) and deduped by shard identity — sync.RWMutex is not reentrant
// even for readers once a writer queues, so the same shard must be
// locked exactly once.
func (s *ShardSet) rlockShards(a, b ShardKey) func() {
	if b.less(a) {
		a, b = b, a
	}
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
	}
}
