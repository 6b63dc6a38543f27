// Package topo models the physical substrate the paper's scenarios run
// over: multiple cloud providers with regions and WAN backbones, the public
// internet between them, internet exchange points (IXPs), on-premises
// datacenters, and dedicated connections (the Direct-Connect/ExpressRoute/
// MPLS class of links from §2 step 4 of the paper).
//
// The graph is directed (each physical link is a pair of directed edges) so
// asymmetric provisioning is expressible. Link attributes carry everything
// the flow-level simulator in package netsim needs: capacity, propagation
// delay, jitter bound, and loss probability.
package topo

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// NodeKind classifies graph nodes.
type NodeKind int

const (
	// Host is a VM/container endpoint.
	Host NodeKind = iota
	// ZoneFabric abstracts a zone's top-of-rack/aggregation layers.
	ZoneFabric
	// RegionRouter is a region's core router inside a provider.
	RegionRouter
	// BorderRouter is a provider exit/entry point to the public internet.
	BorderRouter
	// BackboneRouter is an interior node of a provider's private WAN.
	BackboneRouter
	// IXPRouter is a router at an internet exchange / colocation facility.
	IXPRouter
	// InternetCore is an abstract public-internet transit node.
	InternetCore
	// OnPremRouter is the edge router of a private datacenter.
	OnPremRouter
)

var nodeKindNames = map[NodeKind]string{
	Host: "host", ZoneFabric: "zone", RegionRouter: "region",
	BorderRouter: "border", BackboneRouter: "backbone", IXPRouter: "ixp",
	InternetCore: "inet", OnPremRouter: "onprem",
}

func (k NodeKind) String() string { return nodeKindNames[k] }

// LinkKind classifies links, which is what QoS path policy keys on.
type LinkKind int

const (
	// Access connects hosts to their zone fabric.
	Access LinkKind = iota
	// Fabric connects zone fabrics to region routers.
	Fabric
	// Backbone is a provider's private inter-region WAN link.
	Backbone
	// Transit is a public-internet link (border<->inet, inet<->inet).
	Transit
	// Dedicated is a provisioned private circuit (DX/ER/MPLS class).
	Dedicated
	// XConn is an intra-facility cross-connect at an IXP.
	XConn
)

var linkKindNames = map[LinkKind]string{
	Access: "access", Fabric: "fabric", Backbone: "backbone",
	Transit: "transit", Dedicated: "dedicated", XConn: "xconn",
}

func (k LinkKind) String() string { return linkKindNames[k] }

// NodeID names a node uniquely within a graph.
type NodeID string

// Node is a vertex of the substrate graph.
type Node struct {
	ID       NodeID
	Kind     NodeKind
	Provider string // cloud provider name; "" for internet/IXP nodes
	Region   string // region name within the provider; "" when N/A
	Zone     string // availability zone; "" when N/A
}

// Link is a directed edge with transmission characteristics.
type Link struct {
	ID       string
	From, To NodeID
	Kind     LinkKind
	// Capacity is the link rate in bits per second.
	Capacity float64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Jitter is the bound of uniformly distributed extra delay.
	Jitter time.Duration
	// Loss is the per-traversal packet loss probability in [0,1).
	Loss float64
	// down marks a failed link; set through Graph.SetLinkUp.
	down bool
	// fromIdx/toIdx are the arena indices of From/To, assigned by AddLink
	// so path search never touches the NodeID maps.
	fromIdx, toIdx int32
}

// Up reports whether the link is in service.
func (l *Link) Up() bool { return !l.down }

// Graph is the substrate topology. Construct with New and the Add methods;
// it is not safe for concurrent mutation, but any number of goroutines may
// run ShortestPath (and the other read-only accessors) concurrently as
// long as no mutation is in flight (core mutates it only from the
// simulation driver, with no verb or read in flight).
//
// Nodes live in a dense arena (nodeList, indexed by the order of AddNode)
// so path search runs over int indices instead of NodeID map keys, and
// adjacency lists are kept sorted by link ID at mutation time so the
// search never sorts.
type Graph struct {
	nodes map[NodeID]*Node
	links map[string]*Link

	idx      map[NodeID]int32 // NodeID -> arena index
	nodeList []*Node          // arena, in AddNode order
	adj      [][]*Link        // adj[i] = out-links of nodeList[i], sorted by ID

	// epoch counts topology mutations (AddNode/AddLink/SetLinkUp/
	// SetPairUp). The path cache (qos.Router) keys on it; it is atomic
	// so readers need no lock.
	epoch atomic.Uint64

	// scratch pools per-search working state so concurrent ShortestPath
	// calls each get their own arrays without per-call allocation.
	scratch sync.Pool
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[NodeID]*Node),
		links: make(map[string]*Link),
		idx:   make(map[NodeID]int32),
	}
}

// Epoch returns the number of topology mutations so far. Any change that
// can alter path selection bumps it, so a cache keyed on (Epoch, query)
// can never serve a route computed before a fault or heal.
func (g *Graph) Epoch() uint64 { return g.epoch.Load() }

// AddNode inserts a node; duplicate IDs are an error.
func (g *Graph) AddNode(n Node) (*Node, error) {
	if _, ok := g.nodes[n.ID]; ok {
		return nil, fmt.Errorf("topo: duplicate node %q", n.ID)
	}
	cp := n
	g.nodes[n.ID] = &cp
	g.idx[n.ID] = int32(len(g.nodeList))
	g.nodeList = append(g.nodeList, &cp)
	g.adj = append(g.adj, nil)
	g.epoch.Add(1)
	return &cp, nil
}

// MustAddNode is AddNode for builders; it panics on error.
func (g *Graph) MustAddNode(n Node) *Node {
	node, err := g.AddNode(n)
	if err != nil {
		panic(err)
	}
	return node
}

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) (*Node, bool) {
	n, ok := g.nodes[id]
	return n, ok
}

// Nodes returns all nodes sorted by ID.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NodesWhere returns all nodes matching the predicate, sorted by ID.
func (g *Graph) NodesWhere(pred func(*Node) bool) []*Node {
	var out []*Node
	for _, n := range g.nodes {
		if pred(n) {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AddLink inserts one directed link. Endpoints must exist. The link is
// spliced into its source's adjacency list at its sorted (by ID) position
// so path search relaxes in deterministic order without sorting.
func (g *Graph) AddLink(l Link) (*Link, error) {
	fi, ok := g.idx[l.From]
	if !ok {
		return nil, fmt.Errorf("topo: link %q from unknown node %q", l.ID, l.From)
	}
	ti, ok := g.idx[l.To]
	if !ok {
		return nil, fmt.Errorf("topo: link %q to unknown node %q", l.ID, l.To)
	}
	if _, ok := g.links[l.ID]; ok {
		return nil, fmt.Errorf("topo: duplicate link %q", l.ID)
	}
	if l.Capacity <= 0 {
		return nil, fmt.Errorf("topo: link %q has non-positive capacity", l.ID)
	}
	if l.Loss < 0 || l.Loss >= 1 {
		return nil, fmt.Errorf("topo: link %q has loss %v outside [0,1)", l.ID, l.Loss)
	}
	cp := l
	cp.fromIdx, cp.toIdx = fi, ti
	g.links[l.ID] = &cp
	out := g.adj[fi]
	at := sort.Search(len(out), func(i int) bool { return out[i].ID >= cp.ID })
	out = append(out, nil)
	copy(out[at+1:], out[at:])
	out[at] = &cp
	g.adj[fi] = out
	g.epoch.Add(1)
	return &cp, nil
}

// Connect adds a symmetric pair of directed links with shared attributes,
// naming them "<id>:fwd" and "<id>:rev".
func (g *Graph) Connect(id string, a, b NodeID, kind LinkKind, capacity float64, delay, jitter time.Duration, loss float64) error {
	if _, err := g.AddLink(Link{ID: id + ":fwd", From: a, To: b, Kind: kind,
		Capacity: capacity, Delay: delay, Jitter: jitter, Loss: loss}); err != nil {
		return err
	}
	_, err := g.AddLink(Link{ID: id + ":rev", From: b, To: a, Kind: kind,
		Capacity: capacity, Delay: delay, Jitter: jitter, Loss: loss})
	return err
}

// MustConnect is Connect for builders; it panics on error.
func (g *Graph) MustConnect(id string, a, b NodeID, kind LinkKind, capacity float64, delay, jitter time.Duration, loss float64) {
	if err := g.Connect(id, a, b, kind, capacity, delay, jitter, loss); err != nil {
		panic(err)
	}
}

// Link returns the link with the given ID.
func (g *Graph) Link(id string) (*Link, bool) {
	l, ok := g.links[id]
	return l, ok
}

// SetLinkUp fails or restores one directed link. Use SetPairUp for the
// usual case of a whole physical link. It bumps the epoch even on a
// no-op, so callers can force a cache flush.
func (g *Graph) SetLinkUp(id string, up bool) error {
	if err := g.setLinkUp(id, up); err != nil {
		return err
	}
	g.epoch.Add(1)
	return nil
}

// setLinkUp is SetLinkUp without the epoch bump, so compound mutators
// (SetPairUp) count as one topology transition.
func (g *Graph) setLinkUp(id string, up bool) error {
	l, ok := g.links[id]
	if !ok {
		return fmt.Errorf("topo: unknown link %q", id)
	}
	l.down = !up
	return nil
}

// SetPairUp fails or restores both directions of a link created with
// Connect (ids "<id>:fwd" and "<id>:rev"). It bumps the epoch once: a
// physical link transition is one mutation, not two.
func (g *Graph) SetPairUp(id string, up bool) error {
	if err := g.setLinkUp(id+":fwd", up); err != nil {
		return err
	}
	err := g.setLinkUp(id+":rev", up)
	g.epoch.Add(1) // :fwd changed even when :rev is missing
	return err
}

// Links returns all links sorted by ID.
func (g *Graph) Links() []*Link {
	out := make([]*Link, 0, len(g.links))
	for _, l := range g.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Out returns the links leaving node id, sorted by link ID.
func (g *Graph) Out(id NodeID) []*Link {
	i, ok := g.idx[id]
	if !ok {
		return nil
	}
	return g.adj[i]
}

// Incident returns every directed link touching the node — leaving or
// entering it — sorted by ID. Fault injection uses it to take a whole
// node out of service by failing its attached links.
func (g *Graph) Incident(id NodeID) []*Link {
	var out []*Link
	for _, l := range g.links {
		if l.From == id || l.To == id {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NodesOf returns the nodes of a provider region (all kinds), sorted by
// ID. Region-scoped fault injection keys on it.
func (g *Graph) NodesOf(provider, region string) []*Node {
	return g.NodesWhere(func(n *Node) bool {
		return n.Provider == provider && n.Region == region
	})
}

// Path is an ordered sequence of links from a source to a destination.
type Path []*Link

// Delay returns the total propagation delay along the path.
func (p Path) Delay() time.Duration {
	var d time.Duration
	for _, l := range p {
		d += l.Delay
	}
	return d
}

// Jitter returns the total jitter bound along the path.
func (p Path) Jitter() time.Duration {
	var d time.Duration
	for _, l := range p {
		d += l.Jitter
	}
	return d
}

// DeliveryProb returns the probability a packet survives every hop.
func (p Path) DeliveryProb() float64 {
	prob := 1.0
	for _, l := range p {
		prob *= 1 - l.Loss
	}
	return prob
}

// Bottleneck returns the smallest link capacity along the path, or 0 for
// an empty path.
func (p Path) Bottleneck() float64 {
	if len(p) == 0 {
		return 0
	}
	min := p[0].Capacity
	for _, l := range p[1:] {
		if l.Capacity < min {
			min = l.Capacity
		}
	}
	return min
}

// Nodes returns the node sequence the path visits (len(p)+1 entries), or
// nil for an empty path.
func (p Path) Nodes() []NodeID {
	if len(p) == 0 {
		return nil
	}
	out := make([]NodeID, 0, len(p)+1)
	out = append(out, p[0].From)
	for _, l := range p {
		out = append(out, l.To)
	}
	return out
}

// PathOpts constrains path search.
type PathOpts struct {
	// Forbid excludes links of the given kinds.
	Forbid map[LinkKind]bool
	// AvoidCost adds a large penalty to links of the given kinds instead
	// of excluding them (soft avoidance; used by cold-potato routing to
	// prefer backbone over transit without partitioning).
	Avoid map[LinkKind]bool
}

// avoidPenalty must dominate any realistic path delay so avoided links are
// taken only when no alternative exists.
const avoidPenalty = 10 * time.Second

// pqItem is one heap entry: a node (by arena index) at a tentative
// distance. Ordering is (dist, NodeID) lexicographic so pop order matches
// the linear-scan Dijkstra this replaced — ties settle on the smaller
// node ID, keeping path selection byte-identical.
type pqItem struct {
	dist time.Duration
	node int32
}

// pathScratch is the per-search working state, pooled on the graph so
// steady-state searches allocate only the result path. Slices are indexed
// by arena index; seen/visited are cleared after every search.
type pathScratch struct {
	dist    []time.Duration
	prev    []*Link
	seen    []bool // dist/prev valid this search
	visited []bool
	heap    []pqItem
}

func (g *Graph) getScratch() *pathScratch {
	sc, _ := g.scratch.Get().(*pathScratch)
	if sc == nil {
		sc = &pathScratch{}
	}
	if n := len(g.nodeList); len(sc.dist) < n {
		sc.dist = make([]time.Duration, n)
		sc.prev = make([]*Link, n)
		sc.seen = make([]bool, n)
		sc.visited = make([]bool, n)
	}
	return sc
}

func (g *Graph) putScratch(sc *pathScratch) {
	clear(sc.seen)
	clear(sc.visited)
	sc.heap = sc.heap[:0]
	g.scratch.Put(sc)
}

// less orders heap entries by (dist, NodeID).
func (g *Graph) less(a, b pqItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return g.nodeList[a.node].ID < g.nodeList[b.node].ID
}

func (g *Graph) heapPush(h []pqItem, it pqItem) []pqItem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !g.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func (g *Graph) heapPop(h []pqItem) ([]pqItem, pqItem) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && g.less(h[l], h[least]) {
			least = l
		}
		if r < n && g.less(h[r], h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return h, top
}

// ShortestPath returns the minimum-delay path from src to dst honoring the
// options, or an error when dst is unreachable. Heap-based Dijkstra over
// link delay (plus penalties) with deterministic tie-breaking: equal-cost
// frontier nodes pop in NodeID order and adjacency relaxes in link-ID
// order with strict improvement, so the chosen path is identical to the
// original linear-scan implementation's. Safe for concurrent callers (the
// per-search scratch is pooled) as long as the graph is not mutated
// concurrently.
func (g *Graph) ShortestPath(src, dst NodeID, opts PathOpts) (Path, error) {
	si, ok := g.idx[src]
	if !ok {
		return nil, fmt.Errorf("topo: unknown source %q", src)
	}
	di, ok := g.idx[dst]
	if !ok {
		return nil, fmt.Errorf("topo: unknown destination %q", dst)
	}
	sc := g.getScratch()
	defer g.putScratch(sc)
	dist, prev, seen, visited := sc.dist, sc.prev, sc.seen, sc.visited
	h := sc.heap[:0]

	dist[si], seen[si] = 0, true
	h = g.heapPush(h, pqItem{0, si})
	reached := false
	for len(h) > 0 {
		var it pqItem
		h, it = g.heapPop(h)
		cur := it.node
		if visited[cur] {
			continue // stale entry superseded by a closer one
		}
		if cur == di {
			reached = true
			break
		}
		visited[cur] = true
		for _, l := range g.adj[cur] {
			if l.down || opts.Forbid[l.Kind] {
				continue
			}
			w := l.Delay
			if opts.Avoid[l.Kind] {
				w += avoidPenalty
			}
			nd := dist[cur] + w
			if ti := l.toIdx; !seen[ti] || nd < dist[ti] {
				dist[ti], prev[ti], seen[ti] = nd, l, true
				h = g.heapPush(h, pqItem{nd, ti})
			}
		}
	}
	sc.heap = h[:0] // hand capacity back to the pool
	if !reached {
		return nil, fmt.Errorf("topo: %q unreachable from %q", dst, src)
	}
	// Reconstruct. Every node on the walk was seen this search, so prev is
	// current even though the pool does not clear it.
	var path Path
	for at := di; at != si; {
		l := prev[at]
		if l == nil {
			return nil, fmt.Errorf("topo: no path from %q to %q", src, dst)
		}
		path = append(path, l)
		at = l.fromIdx
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// HostsOf returns the host nodes of a provider region, sorted by ID.
func (g *Graph) HostsOf(provider, region string) []*Node {
	return g.NodesWhere(func(n *Node) bool {
		return n.Kind == Host && n.Provider == provider && n.Region == region
	})
}
