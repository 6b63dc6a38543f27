package addr

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrExhausted is returned when a pool cannot satisfy an allocation.
var ErrExhausted = errors.New("addr: pool exhausted")

// BlockPool hands out non-overlapping sub-prefixes of a root prefix using
// buddy allocation: requests are rounded to powers of two and carved from
// the smallest free block that fits, keeping fragmentation low. This is
// the allocator behind both tenant VPC CIDR planning (the baseline's
// "address planner tool") and the provider's flat EIP pools.
type BlockPool struct {
	root Prefix
	// free[l] holds free blocks of prefix length l, kept sorted for
	// deterministic allocation order.
	free  map[int][]Prefix
	inUse map[Prefix]bool
}

// NewBlockPool returns a pool over the given root prefix.
func NewBlockPool(root Prefix) *BlockPool {
	p := &BlockPool{
		root:  root,
		free:  map[int][]Prefix{root.Len: {root}},
		inUse: make(map[Prefix]bool),
	}
	return p
}

// Root returns the pool's covering prefix.
func (b *BlockPool) Root() Prefix { return b.root }

// Allocate carves a free /length block out of the pool.
func (b *BlockPool) Allocate(length int) (Prefix, error) {
	if length < b.root.Len || length > 32 {
		return Prefix{}, fmt.Errorf("addr: cannot allocate /%d from %s", length, b.root)
	}
	// Find the longest (smallest) free block that still fits.
	donor := -1
	for l := length; l >= b.root.Len; l-- {
		if len(b.free[l]) > 0 {
			donor = l
			break
		}
	}
	if donor < 0 {
		return Prefix{}, fmt.Errorf("allocating /%d from %s: %w", length, b.root, ErrExhausted)
	}
	blk := b.free[donor][0]
	b.free[donor] = b.free[donor][1:]
	// Split down to the requested size, returning the high halves to the
	// free lists.
	for blk.Len < length {
		lo, hi := blk.Halves()
		b.insertFree(hi)
		blk = lo
	}
	b.inUse[blk] = true
	return blk, nil
}

// AllocateFor returns a block large enough for n addresses.
func (b *BlockPool) AllocateFor(n int) (Prefix, error) {
	if n <= 0 {
		return Prefix{}, fmt.Errorf("addr: invalid host count %d", n)
	}
	length := 32
	for length > 0 && (uint64(1)<<(32-uint(length))) < uint64(n) {
		length--
	}
	if (uint64(1) << (32 - uint(length))) < uint64(n) {
		return Prefix{}, fmt.Errorf("addr: no prefix holds %d addresses: %w", n, ErrExhausted)
	}
	return b.Allocate(length)
}

// Release returns a previously allocated block to the pool, coalescing
// buddies back together.
func (b *BlockPool) Release(p Prefix) error {
	if !b.inUse[p] {
		return fmt.Errorf("addr: release of unallocated block %s", p)
	}
	delete(b.inUse, p)
	// Coalesce with the sibling while it is also free.
	for p.Len > b.root.Len {
		sib := p.Sibling()
		if !b.removeFree(sib) {
			break
		}
		p = p.Parent()
	}
	b.insertFree(p)
	return nil
}

// Allocated returns the blocks currently in use, sorted.
func (b *BlockPool) Allocated() []Prefix {
	out := make([]Prefix, 0, len(b.inUse))
	for p := range b.inUse {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Len < out[j].Len
	})
	return out
}

// FreeSpace returns the number of free addresses remaining.
func (b *BlockPool) FreeSpace() uint64 {
	var total uint64
	for _, blocks := range b.free {
		for _, blk := range blocks {
			total += blk.Size()
		}
	}
	return total
}

func (b *BlockPool) insertFree(p Prefix) {
	list := b.free[p.Len]
	i := sort.Search(len(list), func(i int) bool { return list[i].Addr >= p.Addr })
	list = append(list, Prefix{})
	copy(list[i+1:], list[i:])
	list[i] = p
	b.free[p.Len] = list
}

func (b *BlockPool) removeFree(p Prefix) bool {
	list := b.free[p.Len]
	i := sort.Search(len(list), func(i int) bool { return list[i].Addr >= p.Addr })
	if i >= len(list) || list[i] != p {
		return false
	}
	b.free[p.Len] = append(list[:i], list[i+1:]...)
	return true
}

// HostPool hands out individual addresses from a prefix, reusing released
// addresses in FIFO order. It backs the baseline world's per-subnet
// instance addressing, its NAT and shim address pools, and the addressing
// experiments; the declarative control plane allocates from its declared
// state instead (intent.State.NextGrant). Safe for concurrent use.
type HostPool struct {
	mu       sync.Mutex
	prefix   Prefix
	next     IP
	released []IP
	// inUse has bit k set while the address k past prefix.First() is
	// handed out. It reaches only as far as the highest address handed
	// out, never the whole prefix; held counts its set bits.
	inUse []uint64
	held  int
}

// NewHostPool returns a pool over prefix. reserved leading addresses are
// withheld from allocation (clouds typically reserve the first few of each
// subnet); pass 0 for a flat provider pool.
func NewHostPool(prefix Prefix, reserved int) *HostPool {
	return &HostPool{prefix: prefix, next: prefix.First() + IP(reserved)}
}

// bit returns the word of inUse that holds ip's bit, and the bit.
func (h *HostPool) bit(ip IP) (w int, b uint64) {
	off := ip - h.prefix.First()
	return int(off >> 6), 1 << (off & 63)
}

// isHeld reports whether ip is handed out. Only hold sets a bit, and
// never one outside the prefix.
func (h *HostPool) isHeld(ip IP) bool {
	w, b := h.bit(ip)
	return w < len(h.inUse) && h.inUse[w]&b != 0
}

// hold marks ip handed out, growing inUse to reach it. ip is never held
// already: Allocate passes the cursor, past which nothing has been handed
// out, or a released address, whose bit Release cleared.
func (h *HostPool) hold(ip IP) {
	w, b := h.bit(ip)
	if w >= len(h.inUse) {
		h.inUse = append(h.inUse, make([]uint64, w+1-len(h.inUse))...)
	}
	h.inUse[w] |= b
	h.held++
}

// Allocate returns a free address from the pool: the oldest released
// one, else the cursor's.
func (h *HostPool) Allocate() (IP, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.released) > 0 {
		ip := h.released[0]
		h.released = h.released[1:]
		h.hold(ip)
		return ip, nil
	}
	if h.next > h.prefix.Last() || !h.prefix.Contains(h.next) {
		return 0, fmt.Errorf("host pool %s: %w", h.prefix, ErrExhausted)
	}
	ip := h.next
	h.next++
	h.hold(ip)
	return ip, nil
}

// Release returns an address to the pool.
func (h *HostPool) Release(ip IP) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.isHeld(ip) {
		return fmt.Errorf("addr: release of unallocated address %s", ip)
	}
	w, b := h.bit(ip)
	h.inUse[w] &^= b
	h.held--
	h.released = append(h.released, ip)
	return nil
}

// InUse reports how many addresses are currently allocated.
func (h *HostPool) InUse() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.held
}
