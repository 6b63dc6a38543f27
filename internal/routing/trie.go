// Package routing implements the forwarding-state machinery of the
// baseline virtual-network layer: a binary longest-prefix-match trie,
// route tables with metrics, and a prefix aggregation pass. The
// declarative plane does not use it — a permit list is a sorted prefix
// slice (package addr) — and declnetd does not link it.
//
// The E3 experiment uses this package directly to measure how provider
// routing-table size scales under the paper's flat "public but default-off"
// EIP addressing versus today's VPC prefix aggregation (§6(i) of the paper).
package routing

import (
	"declnet/internal/addr"
)

// node is one bit-level node of the binary trie. Nodes with a non-nil
// value carry a route for the prefix spelled by the path to them.
type node[V any] struct {
	child [2]*node[V]
	val   *V
}

// Trie is a longest-prefix-match table mapping addr.Prefix to V.
// The zero value is an empty table ready for use.
type Trie[V any] struct {
	root node[V]
	n    int
}

func bitAt(ip addr.IP, i int) int {
	return int(ip>>(31-uint(i))) & 1
}

// Len returns the number of stored prefixes.
func (t *Trie[V]) Len() int { return t.n }

// Insert stores val for the given prefix, replacing any existing value.
func (t *Trie[V]) Insert(p addr.Prefix, val V) {
	cur := &t.root
	for i := 0; i < p.Len; i++ {
		b := bitAt(p.Addr, i)
		if cur.child[b] == nil {
			cur.child[b] = &node[V]{}
		}
		cur = cur.child[b]
	}
	if cur.val == nil {
		t.n++
	}
	cur.val = &val
}

// Delete removes the route for exactly prefix p. It reports whether a
// route was present. Interior nodes left empty are pruned so the trie's
// memory tracks its contents.
func (t *Trie[V]) Delete(p addr.Prefix) bool {
	// Record the path for pruning on the way back.
	path := make([]*node[V], 0, p.Len+1)
	cur := &t.root
	path = append(path, cur)
	for i := 0; i < p.Len; i++ {
		b := bitAt(p.Addr, i)
		if cur.child[b] == nil {
			return false
		}
		cur = cur.child[b]
		path = append(path, cur)
	}
	if cur.val == nil {
		return false
	}
	cur.val = nil
	t.n--
	// Prune childless, valueless nodes bottom-up (never the root).
	for i := len(path) - 1; i > 0; i-- {
		n := path[i]
		if n.val != nil || n.child[0] != nil || n.child[1] != nil {
			break
		}
		parent := path[i-1]
		b := bitAt(p.Addr, i-1)
		parent.child[b] = nil
	}
	return true
}

// Lookup returns the value of the longest prefix containing ip.
func (t *Trie[V]) Lookup(ip addr.IP) (V, bool) {
	var best *V
	cur := &t.root
	for i := 0; ; i++ {
		if cur.val != nil {
			best = cur.val
		}
		if i == 32 {
			break
		}
		next := cur.child[bitAt(ip, i)]
		if next == nil {
			break
		}
		cur = next
	}
	if best == nil {
		var zero V
		return zero, false
	}
	return *best, true
}

// Get returns the value stored for exactly prefix p.
func (t *Trie[V]) Get(p addr.Prefix) (V, bool) {
	cur := &t.root
	for i := 0; i < p.Len; i++ {
		cur = cur.child[bitAt(p.Addr, i)]
		if cur == nil {
			var zero V
			return zero, false
		}
	}
	if cur.val == nil {
		var zero V
		return zero, false
	}
	return *cur.val, true
}

// Walk visits every stored (prefix, value) pair in address order. The
// callback returning false stops the walk.
func (t *Trie[V]) Walk(fn func(p addr.Prefix, val V) bool) {
	t.walk(&t.root, addr.Prefix{}, fn)
}

func (t *Trie[V]) walk(n *node[V], p addr.Prefix, fn func(addr.Prefix, V) bool) bool {
	if n.val != nil {
		if !fn(p, *n.val) {
			return false
		}
	}
	for b, child := range n.child {
		if child == nil {
			continue
		}
		cp := addr.Prefix{Addr: p.Addr, Len: p.Len + 1}
		if b == 1 {
			cp.Addr |= addr.IP(1) << (31 - uint(p.Len))
		}
		if !t.walk(child, cp, fn) {
			return false
		}
	}
	return true
}

// Prefixes returns all stored prefixes in address order.
func (t *Trie[V]) Prefixes() []addr.Prefix {
	out := make([]addr.Prefix, 0, t.n)
	t.Walk(func(p addr.Prefix, _ V) bool {
		out = append(out, p)
		return true
	})
	return out
}
