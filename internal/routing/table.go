package routing

import (
	"fmt"
	"sort"

	"declnet/internal/addr"
)

// NextHop identifies where a route points. Interpretation of the ID is up
// to the forwarding layer: a gateway name, a link ID, "local", etc.
type NextHop struct {
	ID string
	// Metric breaks ties between routes for the same prefix learned from
	// different sources; lower wins.
	Metric int
	// Origin tags how the route was learned: "static", "propagated",
	// "connected", "aggregated". Used in experiment accounting.
	Origin string
}

// Table is a route table: an LPM trie of NextHops with convenience
// operations and churn accounting. The zero value is ready for use.
type Table struct {
	trie Trie[NextHop]
	// Churn counts route add/remove operations applied over the table's
	// lifetime; E3/E4 use it to report update load.
	Churn uint64
}

// Len returns the number of installed routes.
func (t *Table) Len() int { return t.trie.Len() }

// Install adds or replaces the route for p. When a route for p already
// exists, the lower-metric one wins; equal metrics favor the newcomer.
func (t *Table) Install(p addr.Prefix, hop NextHop) {
	if cur, ok := t.trie.Get(p); ok && cur.Metric < hop.Metric {
		return
	}
	t.trie.Insert(p, hop)
	t.Churn++
}

// Withdraw removes the route for exactly p, reporting whether it existed.
func (t *Table) Withdraw(p addr.Prefix) bool {
	ok := t.trie.Delete(p)
	if ok {
		t.Churn++
	}
	return ok
}

// Lookup returns the next hop for ip via longest-prefix match.
func (t *Table) Lookup(ip addr.IP) (NextHop, bool) {
	return t.trie.Lookup(ip)
}

// Get returns the route installed for exactly p.
func (t *Table) Get(p addr.Prefix) (NextHop, bool) {
	return t.trie.Get(p)
}

// Routes returns the full table in address order.
func (t *Table) Routes() []Route {
	out := make([]Route, 0, t.Len())
	t.trie.Walk(func(p addr.Prefix, hop NextHop) bool {
		out = append(out, Route{Prefix: p, Hop: hop})
		return true
	})
	return out
}

// Route pairs a prefix with its next hop.
type Route struct {
	Prefix addr.Prefix
	Hop    NextHop
}

func (r Route) String() string {
	return fmt.Sprintf("%s via %s metric=%d (%s)", r.Prefix, r.Hop.ID, r.Hop.Metric, r.Hop.Origin)
}

// Aggregate returns a new table with sibling prefixes pointing at the same
// next-hop ID merged into their parent, applied to a fixed point. This
// models the provider-side aggregation the paper relies on for flat EIP
// addressing to scale ("maximum flexibility in assigning addresses from
// their overall pool (e.g., to maximize the ability to aggregate for
// routing)"). Aggregation is semantics-preserving only when the table is
// "complete" (every address matched by a merged parent belongs to one of
// the merged children); the provider allocator guarantees that by carving
// EIPs densely from per-region blocks, and AggregateLossy documents the
// assumption.
func Aggregate(routes []Route) []Route {
	// Work over a set keyed by prefix; repeatedly merge sibling pairs with
	// the same hop ID, keeping the numerically better (lower) metric.
	type key struct {
		p addr.Prefix
	}
	set := make(map[key]NextHop, len(routes))
	for _, r := range routes {
		k := key{r.Prefix}
		if cur, ok := set[k]; !ok || r.Hop.Metric < cur.Metric {
			set[k] = r.Hop
		}
	}
	changed := true
	for changed {
		changed = false
		// Deterministic iteration: collect and sort keys by length desc so
		// deepest prefixes merge first.
		keys := make([]addr.Prefix, 0, len(set))
		for k := range set {
			keys = append(keys, k.p)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Len != keys[j].Len {
				return keys[i].Len > keys[j].Len
			}
			return keys[i].Addr < keys[j].Addr
		})
		for _, p := range keys {
			hop, ok := set[key{p}]
			if !ok || p.Len == 0 {
				continue
			}
			sib := p.Sibling()
			sibHop, ok := set[key{sib}]
			if !ok || sibHop.ID != hop.ID {
				continue
			}
			parent := p.Parent()
			merged := hop
			if sibHop.Metric < merged.Metric {
				merged = sibHop
			}
			merged.Origin = "aggregated"
			delete(set, key{p})
			delete(set, key{sib})
			if cur, ok := set[key{parent}]; !ok || merged.Metric < cur.Metric {
				set[key{parent}] = merged
			}
			changed = true
		}
	}
	out := make([]Route, 0, len(set))
	for k, hop := range set {
		out = append(out, Route{Prefix: k.p, Hop: hop})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prefix.Addr != out[j].Prefix.Addr {
			return out[i].Prefix.Addr < out[j].Prefix.Addr
		}
		return out[i].Prefix.Len < out[j].Prefix.Len
	})
	return out
}

// NewTableFrom builds a table from a route slice.
func NewTableFrom(routes []Route) *Table {
	t := &Table{}
	for _, r := range routes {
		t.Install(r.Prefix, r.Hop)
	}
	t.Churn = 0
	return t
}
