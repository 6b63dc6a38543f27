package addr

import (
	"cmp"
	"math/bits"
	"slices"
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

// A page covers pageSlots consecutive addresses; a /16 covers dirSlots
// pages, whose presence bits fill dirWords words.
const (
	pageBits  = 6
	pageSlots = 1 << pageBits
	dirSlots  = 1 << (16 - pageBits)
	dirWords  = dirSlots / 64
)

// Table is a map keyed by address, split into Stripes stripes by Stripe,
// each behind its own RWMutex. The zero value is an empty table, and all
// methods are safe for concurrent use. Every list is a copy taken one
// stripe at a time, so no caller runs under a stripe lock; only Each's
// and Ascend's visitors do.
//
// The keys are the addresses pools hand out in order, so a Table indexes
// them rather than hashing them. A stripe keeps a short list of /16
// blocks. A block is a 1 024-bit presence map of its pages, with the rank
// of each of its 16 words, and the pages present, in address order; a
// page is a 64-bit presence map of its addresses and the values of the
// addresses present, in address order. Both levels find their entry by a
// popcount of the bits below it, so a lookup is two popcounts, and
// nothing is held for an address that holds no key: a table costs a
// 192-byte block per /16 it has ever held a key in, plus, per run of 64
// addresses holding a key now, a pointer, a 32-byte page and its values.
// A dense key costs its value's size and under a byte, a key alone in
// its /16 a few hundred bytes, and nothing rehashes. Lists come out in
// address order within each block; Ascend walks every key in address
// order.
type Table[V any] struct {
	stripes [Stripes]stripe[V]
}

type stripe[V any] struct {
	mu     sync.RWMutex
	blocks []*block[V]
	n      int
}

type block[V any] struct {
	base  IP               // the /16's first address
	held  [dirWords]uint64 // bit d: page d is present
	rank  [dirWords]uint16 // pages present in the words before each
	pages []*page[V]       // the present pages, in address order
}

type page[V any] struct {
	used uint64 // bit i: slot i holds a key
	vals []V    // the values of the set bits of used, in slot order
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

// slot splits ip into the index of its page in its /16 and its slot on
// that page.
func slot(ip IP) (d, i int) { return int(uint16(ip) >> pageBits), int(ip & (pageSlots - 1)) }

// at returns the position page d has, or would have, in b.pages, and
// whether it is present.
func (b *block[V]) at(d int) (int, bool) {
	w, bit := d>>6, uint64(1)<<(d&63)
	return int(b.rank[w]) + bits.OnesCount64(b.held[w]&(bit-1)), b.held[w]&bit != 0
}

// page returns page d, or nil.
func (b *block[V]) page(d int) *page[V] {
	if r, ok := b.at(d); ok {
		return b.pages[r]
	}
	return nil
}

// mark sets (delta 1) or clears (delta -1) page d's presence bit,
// keeping the ranks of the words after it.
func (b *block[V]) mark(d, delta int) {
	w := d >> 6
	b.held[w] ^= 1 << (d & 63)
	for w++; w < dirWords; w++ {
		b.rank[w] += uint16(delta)
	}
}

// at returns the position slot i's value has, or would have, in
// pg.vals, and whether it is present.
func (pg *page[V]) at(i int) (int, bool) {
	bit := uint64(1) << i
	return bits.OnesCount64(pg.used & (bit - 1)), pg.used&bit != 0
}

// insert puts v at position k of pg.vals. A full array grows to a few
// slots, then to the whole page: a lone key costs a few slots, and a page
// that fills pays two allocations.
func (pg *page[V]) insert(k int, v V) {
	if len(pg.vals) == cap(pg.vals) {
		n := 4
		if len(pg.vals) >= n {
			n = pageSlots
		}
		pg.vals = append(make([]V, 0, n), pg.vals...)
	}
	pg.vals = slices.Insert(pg.vals, k, v)
}

// Get returns ip's value and whether ip is present.
func (t *Table[V]) Get(ip IP) (v V, ok bool) {
	s := &t.stripes[Stripe(ip)]
	s.mu.RLock()
	if b := s.find(ip); b != nil {
		d, i := slot(ip)
		if pg := b.page(d); pg != nil {
			var k int
			if k, ok = pg.at(i); ok {
				v = pg.vals[k]
			}
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
	r, ok := b.at(d)
	if !ok {
		b.pages = slices.Insert(b.pages, r, new(page[V]))
		b.mark(d, 1)
	}
	pg := b.pages[r]
	if k, ok := pg.at(i); ok {
		pg.vals[k] = v
	} else {
		pg.insert(k, v)
		pg.used |= 1 << i
		s.n++
	}
	s.mu.Unlock()
}

// Delete removes ip.
func (t *Table[V]) Delete(ip IP) {
	s := &t.stripes[Stripe(ip)]
	s.mu.Lock()
	if b := s.find(ip); b != nil {
		d, i := slot(ip)
		if r, ok := b.at(d); ok {
			pg := b.pages[r]
			if k, ok := pg.at(i); ok {
				s.n--
				pg.used &^= 1 << i
				pg.vals = slices.Delete(pg.vals, k, k+1) // clears the vacated slot
				if pg.used == 0 {
					b.pages = slices.Delete(b.pages, r, r+1)
					b.mark(d, -1)
				}
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

// Count returns how many keys lie inside block, reading what Values
// reads.
func (t *Table[V]) Count(block Prefix) (n int) {
	t.scan(block, 0, 1, func(IP, V) { n++ })
	return n
}

// PhaseKeys returns the keys of the stripes whose index is phase mod k: a
// rotation over phases 0..k-1 lists every key exactly once. k ≤ 1 lists
// every key.
func (t *Table[V]) PhaseKeys(phase, k int) []IP {
	var out []IP
	t.scan(Prefix{}, phase, k, func(ip IP, _ V) { out = append(out, ip) })
	return out
}

// Ascend calls visit for each key from from on, in ascending address
// order across every block and stripe, until visit returns false. Each
// block is walked under its stripe's read lock, collecting nothing:
// visit must not call back into the table. A caller that stops can
// resume at the key after the last one it saw, and then sees every key
// present throughout exactly once, in order, whatever was put or deleted
// in between.
func (t *Table[V]) Ascend(from IP, visit func(IP, V) bool) {
	var bb [16]*block[V] // a table holds few /16s
	blocks := bb[:0]
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.RLock()
		for _, b := range s.blocks {
			if b.base >= from&^0xffff {
				blocks = append(blocks, b)
			}
		}
		s.mu.RUnlock()
	}
	slices.SortFunc(blocks, func(a, b *block[V]) int { return cmp.Compare(a.base, b.base) })
	for _, b := range blocks {
		s := &t.stripes[Stripe(b.base)]
		s.mu.RLock()
		more := b.ascend(from, visit)
		s.mu.RUnlock()
		if !more {
			return
		}
	}
}

// ascend is Ascend within one block, under its stripe's read lock.
func (b *block[V]) ascend(from IP, visit func(IP, V) bool) bool {
	d0 := 0
	if from > b.base {
		d0 = int(uint16(from) >> pageBits)
	}
	r, _ := b.at(d0)
	for w := d0 >> 6; w < dirWords; w++ {
		held := b.held[w]
		if w == d0>>6 {
			held &^= 1<<(d0&63) - 1
		}
		for ; held != 0; held &= held - 1 {
			d := w<<6 | bits.TrailingZeros64(held)
			pg := b.pages[r]
			r++
			k := 0
			for used := pg.used; used != 0; used &= used - 1 {
				ip := b.base | IP(d<<pageBits|bits.TrailingZeros64(used))
				if ip >= from && !visit(ip, pg.vals[k]) {
					return false
				}
				k++
			}
		}
	}
	return true
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
			if block.Overlaps(NewPrefix(b.base, 16)) {
				b.ascend(0, func(ip IP, v V) bool {
					if block.Contains(ip) {
						visit(ip, v)
					}
					return true
				})
			}
		}
		s.mu.RUnlock()
	}
}
