package addr

import "sync"

// Stripes is the number of independently locked parts a Table splits its
// keys into. A key's stripe is its /16 block (Stripe), the unit providers
// carve one region at a time, so one region's keys share one stripe and
// churn in one region never takes a lock a reader in another holds. 64 is
// a power of two, so the index is a mask, and exceeds the region count of
// any world built here.
const Stripes = 64

// Stripe returns ip's stripe: its /16 block, modulo Stripes.
func Stripe(ip IP) int { return int(ip>>16) & (Stripes - 1) }

// Table is a map keyed by address, split into Stripes stripes by Stripe,
// each behind its own RWMutex. The zero value is an empty table, and all
// methods are safe for concurrent use. Every list is a copy taken one
// stripe at a time, in no particular order, so no caller runs under a
// stripe lock.
type Table[V any] struct {
	stripes [Stripes]struct {
		mu sync.RWMutex
		m  map[IP]V
	}
}

// Get returns ip's value and whether ip is present.
func (t *Table[V]) Get(ip IP) (V, bool) {
	s := &t.stripes[Stripe(ip)]
	s.mu.RLock()
	v, ok := s.m[ip]
	s.mu.RUnlock()
	return v, ok
}

// Put sets ip's value.
func (t *Table[V]) Put(ip IP, v V) {
	s := &t.stripes[Stripe(ip)]
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[IP]V)
	}
	s.m[ip] = v
	s.mu.Unlock()
}

// Delete removes ip.
func (t *Table[V]) Delete(ip IP) {
	s := &t.stripes[Stripe(ip)]
	s.mu.Lock()
	delete(s.m, ip)
	s.mu.Unlock()
}

// Len returns the number of keys.
func (t *Table[V]) Len() int {
	n := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// All returns every value.
func (t *Table[V]) All() []V { return t.Values(Prefix{}) }

// Values returns the values of the keys inside block. A block of /16 or
// longer lies in one stripe, and only that stripe is read.
func (t *Table[V]) Values(block Prefix) []V {
	var out []V
	t.scan(block, 0, 1, func(_ IP, v V) { out = append(out, v) })
	return out
}

// Keys returns the keys inside block, reading what Values reads.
func (t *Table[V]) Keys(block Prefix) []IP {
	var out []IP
	t.scan(block, 0, 1, func(ip IP, _ V) { out = append(out, ip) })
	return out
}

// PhaseKeys returns the keys of the stripes whose index is phase mod k: a
// rotation over phases 0..k-1 lists every key exactly once. k ≤ 1 lists
// every key.
func (t *Table[V]) PhaseKeys(phase, k int) []IP {
	var out []IP
	t.scan(Prefix{}, phase, k, func(ip IP, _ V) { out = append(out, ip) })
	return out
}

// scan calls visit under the stripe's read lock for each key inside block
// in the stripes whose index is phase mod k; visit only appends.
func (t *Table[V]) scan(block Prefix, phase, k int, visit func(IP, V)) {
	for i := range t.stripes {
		if (k > 1 && i%k != phase) || (block.Len >= 16 && i != Stripe(block.Addr)) {
			continue
		}
		s := &t.stripes[i]
		s.mu.RLock()
		for ip, v := range s.m {
			if block.Contains(ip) {
				visit(ip, v)
			}
		}
		s.mu.RUnlock()
	}
}
