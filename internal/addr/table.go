package addr

import (
	"math/bits"
	"sync"
)

// Stripes is the number of independently locked parts a Table splits its
// keys into. A key's stripe is its /16 block (Stripe), the unit providers
// carve one region at a time, so one region's keys share one stripe and
// churn in one region never takes a lock a reader in another holds. 64 is
// a power of two, so the index is a mask, and exceeds the region count of
// any world built here.
const Stripes = 64

// Stripe returns ip's stripe: its /16 block, modulo Stripes.
func Stripe(ip IP) int { return int(ip>>16) & (Stripes - 1) }

// A page holds the values of pageSlots consecutive addresses; a /16's
// directory holds dirSlots page pointers.
const (
	pageBits  = 6
	pageSlots = 1 << pageBits
	dirSlots  = 1 << (16 - pageBits)
)

// Table is a map keyed by address, split into Stripes stripes by Stripe,
// each behind its own RWMutex. The zero value is an empty table, and all
// methods are safe for concurrent use. Every list is a copy taken one
// stripe at a time, so no caller runs under a stripe lock; only Each's
// visitor does.
//
// The keys are the addresses pools hand out in order, so a Table indexes
// them rather than hashing them. A stripe keeps a short list of /16
// blocks; a block is a directory of 1 024 pages, and a page is a presence
// bitmap and the values of 64 consecutive addresses, allocated on its
// first key and freed with its last. So a table costs an 8 KB directory
// per /16 it has ever held a key in, plus one page per run of 64
// addresses that holds a key now: a dense key costs its value's size
// plus an eighth of a byte, and nothing rehashes. Lists come out in
// address order within each block.
type Table[V any] struct {
	stripes [Stripes]stripe[V]
}

type stripe[V any] struct {
	mu     sync.RWMutex
	blocks []*block[V]
	n      int
}

type block[V any] struct {
	base IP // the /16's first address
	dir  [dirSlots]*page[V]
}

type page[V any] struct {
	used uint64 // bit i: slot i holds a key
	vals [pageSlots]V
}

// find returns the block of ip's /16, or nil.
func (s *stripe[V]) find(ip IP) *block[V] {
	for _, b := range s.blocks {
		if b.base == ip&^0xffff {
			return b
		}
	}
	return nil
}

// slot splits ip into the index of its page in its /16's directory and
// its slot on that page.
func slot(ip IP) (d, i int) { return int(uint16(ip) >> pageBits), int(ip & (pageSlots - 1)) }

// Get returns ip's value and whether ip is present.
func (t *Table[V]) Get(ip IP) (v V, ok bool) {
	s := &t.stripes[Stripe(ip)]
	s.mu.RLock()
	if b := s.find(ip); b != nil {
		d, i := slot(ip)
		if pg := b.dir[d]; pg != nil && pg.used&(1<<i) != 0 {
			v, ok = pg.vals[i], true
		}
	}
	s.mu.RUnlock()
	return v, ok
}

// Put sets ip's value.
func (t *Table[V]) Put(ip IP, v V) {
	s := &t.stripes[Stripe(ip)]
	s.mu.Lock()
	b := s.find(ip)
	if b == nil {
		b = &block[V]{base: ip &^ 0xffff}
		s.blocks = append(s.blocks, b)
	}
	d, i := slot(ip)
	pg := b.dir[d]
	if pg == nil {
		pg = new(page[V])
		b.dir[d] = pg
	}
	if pg.used&(1<<i) == 0 {
		pg.used |= 1 << i
		s.n++
	}
	pg.vals[i] = v
	s.mu.Unlock()
}

// Delete removes ip.
func (t *Table[V]) Delete(ip IP) {
	s := &t.stripes[Stripe(ip)]
	s.mu.Lock()
	if b := s.find(ip); b != nil {
		d, i := slot(ip)
		if pg := b.dir[d]; pg != nil && pg.used&(1<<i) != 0 {
			s.n--
			pg.used &^= 1 << i
			var zero V
			pg.vals[i] = zero
			if pg.used == 0 {
				b.dir[d] = nil
			}
		}
	}
	s.mu.Unlock()
}

// Len returns the number of keys.
func (t *Table[V]) Len() int {
	n := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.RLock()
		n += s.n
		s.mu.RUnlock()
	}
	return n
}

// Each calls visit for every value, one stripe at a time under that
// stripe's read lock, collecting nothing: visit must not call back into
// the table.
func (t *Table[V]) Each(visit func(V)) {
	t.scan(Prefix{}, 0, 1, func(_ IP, v V) { visit(v) })
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
		for _, b := range s.blocks {
			if !block.Overlaps(NewPrefix(b.base, 16)) {
				continue
			}
			for d, pg := range b.dir {
				if pg == nil {
					continue
				}
				for used := pg.used; used != 0; used &= used - 1 {
					i := bits.TrailingZeros64(used)
					if ip := b.base | IP(d<<pageBits|i); block.Contains(ip) {
						visit(ip, pg.vals[i])
					}
				}
			}
		}
		s.mu.RUnlock()
	}
}
