// Router: an epoch-keyed cache in front of PathFor, the provider's
// connect-time route computation. The paper's pitch is that the
// provider absorbs the datapath work tenants used to do by hand — which
// makes path selection a per-connect cost, and repeat (policy, src,
// dst) queries the common case.
//
// Invalidation is one counter: the cache is valid at one graph epoch,
// and the first lookup after any topology mutation flushes it whole. No
// Table-2 verb mutates the graph; topology changes only in fault/heal
// steps, which run with no query in flight, so a step's N link
// transitions cost one flush however many epochs they advance.
//
// Misses (including errors) are cached too: an unreachable or unknown
// pair stays so until the topology changes, which flushes the entry.
//
// Concurrent misses for the same key dedup singleflight-style: one
// caller runs the Dijkstra, the rest park on its result, so a cold key
// hit by a stampede of readers costs one search instead of N.
package qos

import (
	"sync"
	"sync/atomic"

	"declnet/internal/topo"
)

// pathKey identifies one cached route query.
type pathKey struct {
	policy   PotatoPolicy
	src, dst topo.NodeID
}

// pathVal is one cached outcome: the path, or the error the search
// produced (negative cache entry).
type pathVal struct {
	path topo.Path
	err  error
}

// flight is one in-progress computation waiters can park on. ok means
// the leader's result was computed against a stable graph and is safe
// to share; otherwise waiters recompute for themselves.
type flight struct {
	done chan struct{}
	path topo.Path
	err  error
	ok   bool
}

// routerCacheCap bounds the cache. Entries live until the topology
// changes, so a pathological key churn could grow the map without
// bound; past the cap the next store clears it wholesale (counted as a
// flush) rather than tracking LRU order on the hot path.
const routerCacheCap = 1 << 17

// Router serves policy path queries through an epoch-keyed cache over
// one graph. Concurrent readers are safe; the graph itself must not be
// mutated while a query is in flight (core mutates it only from the
// simulation driver, with no verb or read in flight).
type Router struct {
	g *topo.Graph

	mu       sync.RWMutex
	epoch    uint64 // graph epoch the cache contents are valid at
	cache    map[pathKey]pathVal
	inflight map[pathKey]*flight

	hits, misses, flushes     atomic.Uint64
	searches, shared, waiting atomic.Uint64

	// testSearchGate, when set (tests only), runs after the leader's
	// epoch snapshot and before its path search, so tests can hold a
	// computation open or land a mutation mid-search deterministically.
	testSearchGate func()
}

// NewRouter returns an empty cache over g.
func NewRouter(g *topo.Graph) *Router {
	return &Router{
		g:        g,
		cache:    make(map[pathKey]pathVal),
		inflight: make(map[pathKey]*flight),
	}
}

// Graph returns the underlying substrate graph.
func (r *Router) Graph() *topo.Graph { return r.g }

// PathFor computes the route src->dst under the policy, serving the
// cached entry while the cache's epoch is the graph's. Hits return the
// same Path value the original computation produced (callers must not
// mutate it).
func (r *Router) PathFor(policy PotatoPolicy, src, dst topo.NodeID) (topo.Path, error) {
	key := pathKey{policy, src, dst}
	r.mu.RLock()
	if r.epoch == r.g.Epoch() {
		if v, ok := r.cache[key]; ok {
			r.mu.RUnlock()
			r.hits.Add(1)
			return v.path, v.err
		}
	}
	r.mu.RUnlock()
	r.misses.Add(1)
	return r.compute(key, true)
}

// compute runs (or joins) the path search for key and installs the
// result. mayWait lets a caller join an in-flight leader; a waiter
// whose leader raced a mutation retries with mayWait=false so it cannot
// park twice.
func (r *Router) compute(key pathKey, mayWait bool) (topo.Path, error) {
	r.mu.Lock()
	// Sync the cache to the current epoch first: everything in it
	// predates the mutation.
	if ep := r.g.Epoch(); r.epoch != ep {
		if len(r.cache) > 0 {
			clear(r.cache)
			r.flushes.Add(1)
		}
		r.epoch = ep
	}
	ep := r.epoch
	if f, ok := r.inflight[key]; ok && mayWait {
		r.mu.Unlock()
		r.waiting.Add(1)
		<-f.done
		if f.ok {
			r.shared.Add(1)
			return f.path, f.err
		}
		return r.compute(key, false)
	}
	f := &flight{done: make(chan struct{})}
	if mayWait {
		r.inflight[key] = f
	}
	r.mu.Unlock()

	if r.testSearchGate != nil {
		r.testSearchGate()
	}
	r.searches.Add(1)
	path, err := PathFor(r.g, key.policy, key.src, key.dst)
	// A mutation landing mid-search may have torn what the search read:
	// its result is returned but neither stored nor shared.
	storable := r.g.Epoch() == ep

	r.mu.Lock()
	if mayWait && r.inflight[key] == f {
		delete(r.inflight, key)
	}
	if storable && r.epoch == ep {
		if len(r.cache) >= routerCacheCap {
			clear(r.cache)
			r.flushes.Add(1)
		}
		r.cache[key] = pathVal{path, err}
	}
	r.mu.Unlock()
	f.path, f.err, f.ok = path, err, storable
	close(f.done)
	return path, err
}

// Hits returns the number of queries answered from the cache.
func (r *Router) Hits() uint64 { return r.hits.Load() }

// Misses returns the number of queries not answered from the cache.
func (r *Router) Misses() uint64 { return r.misses.Load() }

// Flushes returns the number of wholesale invalidations (epoch changes
// and cap overflows).
func (r *Router) Flushes() uint64 { return r.flushes.Load() }

// Searches returns the number of full path computations actually run.
func (r *Router) Searches() uint64 { return r.searches.Load() }

// Shared returns the number of queries served by another caller's
// in-flight computation (singleflight hits).
func (r *Router) Shared() uint64 { return r.shared.Load() }

// Len returns the number of cached entries (positive and negative).
func (r *Router) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.cache)
}

// inflightLen reports in-progress computations (tests only).
func (r *Router) inflightLen() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.inflight)
}
