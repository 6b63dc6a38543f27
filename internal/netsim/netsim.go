// Package netsim is the flow-level data plane: it carries flows over paths
// through a topo.Graph inside a discrete-event simulation, assigning each
// flow its max-min fair share of every link it crosses and recomputing
// shares whenever the flow set changes.
//
// The fluid-flow approximation (no per-packet events) is what makes the
// paper's experiments tractable at multi-cloud scale; every experiment in
// this repository compares relative path and policy quality, for which
// steady-state fair-share rates plus propagation/jitter/loss models are
// the established abstraction.
//
// The fair-share solver is incremental: the network keeps a persistent
// link->flow adjacency index, flow events (start, stop, rate-cap change,
// link failure) only mark the links they touch dirty, and a solve
// recomputes just the connected component of links and flows reachable
// from the dirty set — max-min allocations decompose exactly across
// disjoint components, so untouched traffic keeps its rates. Events that
// land at the same virtual timestamp are batched into one solve (epoch
// batching). The original from-scratch progressive-filling solver is kept
// as a reference implementation; setting CheckParity cross-checks every
// incremental solve against it.
package netsim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"

	"declnet/internal/sim"
	"declnet/internal/topo"
)

// Flow is a unit of bulk transfer or a persistent demand on the network.
type Flow struct {
	ID string
	// Path is the link sequence the flow occupies.
	Path topo.Path
	// Size is the number of bytes to transfer; <0 means a persistent flow
	// that runs until Stop.
	Size float64
	// MaxRate caps the flow's rate in bits/s (0 = uncapped). Egress
	// guarantees and token-bucket policers set this.
	MaxRate float64
	// Weight scales the flow's fair share (default 1).
	Weight float64

	// OnDone fires when a sized flow completes, with its completion time.
	OnDone func(fct time.Duration)

	// OnKilled fires when the flow is destroyed by Kill (fault injection
	// tearing down a stalled flow) rather than completing or being
	// stopped by its owner. OnDone does not fire for killed flows.
	OnKilled func()

	net       *Network // non-nil while the flow is active
	seq       uint64   // admission order; the deterministic iteration key
	started   sim.Time
	lastSync  sim.Time // virtual time up to which sent/remaining integrate
	remaining float64  // bits
	rate      float64  // current assigned bits/s
	sent      float64  // bits delivered so far
	done      bool

	finishAt sim.Time // absolute completion estimate; 0 = none
	heapVer  uint64   // invalidates superseded completion-heap entries

	visit   uint64 // solver component mark (== Network.visitGen)
	frozen  bool   // solver scratch: rate fixed this solve
	stalled bool   // solver scratch: crosses a failed link
}

// Rate returns the flow's currently assigned rate in bits/s, applying any
// pending fair-share recomputation first.
func (f *Flow) Rate() float64 {
	if f.net != nil {
		f.net.flush()
	}
	return f.rate
}

// SentBytes returns how many bytes the flow has delivered up to the
// current virtual time.
func (f *Flow) SentBytes() float64 {
	if f.net != nil {
		f.net.flush()
		f.net.syncFlow(f)
	}
	return f.sent / 8
}

// Done reports whether a sized flow has completed.
func (f *Flow) Done() bool { return f.done }

// Stalled reports whether the flow currently crosses a failed link and is
// pinned at rate 0 (it resumes when the link returns). Any pending solve
// is applied first.
func (f *Flow) Stalled() bool {
	if f.net == nil {
		return false
	}
	f.net.flush()
	for _, l := range f.Path {
		if !l.Up() {
			return true
		}
	}
	return false
}

// linkEntry is the persistent per-link record of the adjacency index: the
// flows crossing the link (in admission order, the solver's deterministic
// iteration order) plus solver scratch state reused across solves.
type linkEntry struct {
	link  *topo.Link
	flows []*Flow

	dirtyMark bool   // queued in Network.dirty
	visit     uint64 // solver component mark (== Network.visitGen)

	// Progressive-filling scratch, valid only during a solve.
	residual float64
	weight   float64
}

// Network simulates flows over a graph.
type Network struct {
	G   *topo.Graph
	Eng *sim.Engine

	flows   map[string]*Flow
	nextID  int
	flowSeq uint64

	// index is the persistent link->flow adjacency; entries are created on
	// first use and kept (empty) afterwards so their slices are reused.
	index map[*topo.Link]*linkEntry

	// dirty holds the links touched since the last solve. Events at one
	// virtual timestamp accumulate here and are resolved by a single
	// flush, scheduled at the same timestamp (epoch batching).
	dirty    []*linkEntry
	flushEv  *sim.Event
	visitGen uint64

	// due is the completion min-heap (lazy deletion via heapVer).
	due        dueHeap
	completion *sim.Event

	// Reusable solve scratch (satisfies zero-allocation steady state).
	compLinks []*linkEntry
	compFlows []*Flow
	finished  []*Flow
	fullSeeds []*linkEntry

	// Recomputes counts fair-share solves; FlowsTouched and LinksTouched
	// accumulate the component sizes those solves visited. Together they
	// are the solver-cost metrics the experiment tables report.
	Recomputes   uint64
	FlowsTouched uint64
	LinksTouched uint64

	// CheckParity cross-checks every incremental solve against the
	// reference from-scratch solver; mismatches beyond 1e-9 relative
	// tolerance are counted and the first one described in ParityErr.
	CheckParity      bool
	ParityMismatches uint64
	ParityErr        string

	// ForceFull makes every solve recompute all flows from the full link
	// set (the pre-incremental behaviour); benchmarks use it to measure
	// the incremental solver's advantage.
	ForceFull bool
}

// New returns a network over g driven by eng.
func New(g *topo.Graph, eng *sim.Engine) *Network {
	return &Network{
		G: g, Eng: eng,
		flows: make(map[string]*Flow),
		index: make(map[*topo.Link]*linkEntry),
	}
}

// StartFlow begins transferring sizeBytes over path. The returned flow's
// OnDone (if set) fires at completion. A negative sizeBytes starts a
// persistent flow. Weight defaults to 1 when non-positive. The fair-share
// recomputation is deferred to the end of the current event epoch; rate
// reads force it.
func (n *Network) StartFlow(f *Flow) (*Flow, error) {
	if len(f.Path) == 0 {
		return nil, fmt.Errorf("netsim: flow with empty path")
	}
	if f.Weight <= 0 {
		f.Weight = 1
	}
	if f.ID == "" {
		n.nextID++
		f.ID = fmt.Sprintf("flow-%d", n.nextID)
	}
	if _, ok := n.flows[f.ID]; ok {
		return nil, fmt.Errorf("netsim: duplicate flow id %q", f.ID)
	}
	now := n.Eng.Now()
	f.net = n
	n.flowSeq++
	f.seq = n.flowSeq
	f.started = now
	f.lastSync = now
	f.rate = 0
	f.finishAt = 0
	if f.Size >= 0 {
		f.remaining = f.Size * 8
	} else {
		f.remaining = math.Inf(1)
	}
	n.flows[f.ID] = f
	for _, l := range f.Path {
		le, ok := n.index[l]
		if !ok {
			le = &linkEntry{link: l}
			n.index[l] = le
		}
		le.flows = append(le.flows, f)
		n.markDirty(le)
	}
	return f, nil
}

// Stop removes a flow (persistent or not) without firing OnDone.
func (n *Network) Stop(f *Flow) {
	if cur, ok := n.flows[f.ID]; !ok || cur != f {
		return
	}
	n.syncFlow(f)
	delete(n.flows, f.ID)
	n.detach(f)
}

// detach removes an active flow from the adjacency index, invalidates its
// completion entry, and marks its links dirty.
func (n *Network) detach(f *Flow) {
	for _, l := range f.Path {
		le, ok := n.index[l]
		if !ok {
			continue
		}
		for i, ff := range le.flows {
			if ff == f {
				le.flows = append(le.flows[:i], le.flows[i+1:]...)
				break
			}
		}
		n.markDirty(le)
	}
	f.net = nil
	f.heapVer++
	f.finishAt = 0
}

// SetMaxRate changes a flow's rate cap and redistributes shares. A no-op
// cap change dirties nothing.
func (n *Network) SetMaxRate(f *Flow, cap float64) {
	if f.MaxRate == cap {
		return
	}
	f.MaxRate = cap
	if f.net != n {
		return
	}
	for _, l := range f.Path {
		if le, ok := n.index[l]; ok {
			n.markDirty(le)
		}
	}
}

// Active returns the number of in-flight flows.
func (n *Network) Active() int { return len(n.flows) }

// markDirty queues a link for the next incremental solve and arms the
// end-of-epoch flush event at the current virtual timestamp.
func (n *Network) markDirty(le *linkEntry) {
	if !le.dirtyMark {
		le.dirtyMark = true
		n.dirty = append(n.dirty, le)
	}
	if n.flushEv == nil {
		n.flushEv = n.Eng.After(0, n.flushEvent)
	}
}

func (n *Network) flushEvent() {
	n.flushEv = nil
	n.flush()
}

// flush resolves all pending events in one incremental solve. It always
// runs at the same virtual timestamp as the events that marked the dirty
// set, either on demand (rate reads) or from the epoch flush event.
func (n *Network) flush() {
	if len(n.dirty) == 0 {
		return
	}
	if n.flushEv != nil {
		n.flushEv.Cancel()
		n.flushEv = nil
	}
	seeds := n.dirty
	if n.ForceFull {
		seeds = n.allEntries()
	}
	n.solve(seeds)
	for _, le := range n.dirty {
		le.dirtyMark = false
	}
	n.dirty = n.dirty[:0]
	if n.CheckParity {
		n.checkParity()
	}
	n.armCompletion()
}

// allEntries returns every indexed link in ID order (the forced-full seed
// set).
func (n *Network) allEntries() []*linkEntry {
	n.fullSeeds = n.fullSeeds[:0]
	for _, le := range n.index {
		n.fullSeeds = append(n.fullSeeds, le)
	}
	sort.Slice(n.fullSeeds, func(i, j int) bool {
		return n.fullSeeds[i].link.ID < n.fullSeeds[j].link.ID
	})
	return n.fullSeeds
}

// syncFlow integrates a flow's delivered bits up to the current virtual
// time at its current rate. Rates only change at solve boundaries within
// the same timestamp, so lazy per-flow integration is exact.
func (n *Network) syncFlow(f *Flow) {
	if f.net != n {
		return
	}
	dt := (n.Eng.Now() - f.lastSync).Seconds()
	if dt <= 0 {
		return
	}
	f.lastSync = n.Eng.Now()
	if f.rate > 0 {
		bits := f.rate * dt
		if bits > f.remaining {
			bits = f.remaining
		}
		f.remaining -= bits
		f.sent += bits
	}
}

// setRate assigns a flow's new rate, syncing first is the caller's duty.
// It refreshes the flow's completion-heap entry; an unchanged rate keeps
// the existing entry (its absolute finish time is still exact).
func (n *Network) setRate(f *Flow, r float64) {
	if r == f.rate {
		return
	}
	f.rate = r
	f.heapVer++
	f.finishAt = 0
	if r > 0 && !math.IsInf(f.remaining, 1) {
		// Round up to whole nanoseconds and never schedule at zero delay:
		// float rounding can leave a sliver of remaining bits, and a
		// 0-delay event would re-fire at the same virtual time without
		// progress.
		d := sim.Time(math.Ceil(f.remaining / r * float64(time.Second)))
		if d < 1 {
			d = 1
		}
		f.finishAt = n.Eng.Now() + d
		heap.Push(&n.due, dueEntry{at: f.finishAt, seq: f.seq, f: f, ver: f.heapVer})
	}
}

// solve recomputes weighted max-min fair rates via progressive filling
// over the connected component(s) of links and flows reachable from the
// seed links. Max-min allocations decompose exactly across components
// that share no link, so flows outside the reached component keep their
// rates untouched.
func (n *Network) solve(seeds []*linkEntry) {
	n.Recomputes++
	n.visitGen++
	vg := n.visitGen

	// Breadth-first closure: link -> its flows -> their links. The
	// traversal order (dirty order, then admission order within a link)
	// is deterministic, which keeps replays bit-identical.
	n.compLinks = n.compLinks[:0]
	n.compFlows = n.compFlows[:0]
	for _, le := range seeds {
		if le.visit != vg {
			le.visit = vg
			n.compLinks = append(n.compLinks, le)
		}
	}
	for i := 0; i < len(n.compLinks); i++ {
		le := n.compLinks[i]
		for _, f := range le.flows {
			if f.visit == vg {
				continue
			}
			f.visit = vg
			n.compFlows = append(n.compFlows, f)
			for _, l := range f.Path {
				fe := n.index[l]
				if fe.visit != vg {
					fe.visit = vg
					n.compLinks = append(n.compLinks, fe)
				}
			}
		}
	}
	n.FlowsTouched += uint64(len(n.compFlows))
	n.LinksTouched += uint64(len(n.compLinks))

	// Reset component state; flows crossing a failed link stall at rate 0
	// and occupy no capacity anywhere; they resume when the link returns.
	live := 0
	for _, le := range n.compLinks {
		le.residual = le.link.Capacity
		le.weight = 0
	}
	for _, f := range n.compFlows {
		n.syncFlow(f)
		f.frozen = true
		f.stalled = false
		for _, l := range f.Path {
			if !l.Up() {
				f.stalled = true
				break
			}
		}
		if f.stalled {
			n.setRate(f, 0)
			continue
		}
		f.frozen = false
		live++
		for _, l := range f.Path {
			n.index[l].weight += f.Weight
		}
	}

	// Progressive filling restricted to the component.
	for live > 0 {
		// The binding constraint is either the tightest link's fair share
		// or the smallest per-flow cap.
		share := math.Inf(1)
		for _, le := range n.compLinks {
			if le.weight <= 0 {
				continue
			}
			if s := le.residual / le.weight; s < share {
				share = s
			}
		}
		var capped *Flow
		for _, f := range n.compFlows {
			if f.frozen || f.MaxRate <= 0 {
				continue
			}
			if pw := f.MaxRate / f.Weight; pw < share {
				share = pw
				capped = f
			}
		}
		if math.IsInf(share, 1) {
			// No constraining link or cap (can happen only when every
			// remaining flow traverses only links that already lost all
			// weight — not expected, but terminate defensively).
			for _, f := range n.compFlows {
				if !f.frozen {
					n.setRate(f, 0)
					f.frozen = true
					live--
				}
			}
			break
		}
		if capped != nil {
			// Freeze just the capped flow at its cap.
			n.setRate(capped, capped.MaxRate)
			n.consume(capped)
			capped.frozen = true
			live--
			continue
		}
		// Freeze every unfrozen flow crossing a saturated link.
		froze := false
		for _, le := range n.compLinks {
			if le.weight <= 0 || le.residual/le.weight > share+1e-12 {
				continue
			}
			for _, f := range le.flows {
				if f.frozen {
					continue
				}
				n.setRate(f, share*f.Weight)
				n.consume(f)
				f.frozen = true
				live--
				froze = true
			}
		}
		if !froze {
			// Numerical corner: give everyone the share and stop.
			for _, f := range n.compFlows {
				if !f.frozen {
					n.setRate(f, share*f.Weight)
					f.frozen = true
					live--
				}
			}
		}
	}
}

// consume charges a just-frozen flow's rate and weight to its links.
func (n *Network) consume(f *Flow) {
	for _, l := range f.Path {
		le := n.index[l]
		le.residual -= f.rate
		if le.residual < 0 {
			le.residual = 0
		}
		le.weight -= f.Weight
	}
}

// dueEntry is one completion-heap record; lazy deletion via ver, with seq
// as the deterministic tiebreak at equal finish times.
type dueEntry struct {
	at  sim.Time
	seq uint64
	f   *Flow
	ver uint64
}

type dueHeap []dueEntry

func (h dueHeap) Len() int { return len(h) }
func (h dueHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h dueHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *dueHeap) Push(x any)   { *h = append(*h, x.(dueEntry)) }
func (h *dueHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// armCompletion (re)schedules the single engine event at the earliest
// live completion estimate, discarding superseded heap tops.
func (n *Network) armCompletion() {
	for len(n.due) > 0 && n.due[0].ver != n.due[0].f.heapVer {
		heap.Pop(&n.due)
	}
	if len(n.due) == 0 {
		if n.completion != nil {
			n.completion.Cancel()
			n.completion = nil
		}
		return
	}
	at := n.due[0].at
	if now := n.Eng.Now(); at < now {
		at = now
	}
	if n.completion != nil {
		if n.completion.At() == at {
			return
		}
		n.completion.Cancel()
	}
	n.completion = n.Eng.Schedule(at, n.onCompletion)
}

// onCompletion completes every flow that has drained, reshapes the
// affected component once, then fires the OnDone callbacks.
func (n *Network) onCompletion() {
	n.completion = nil
	now := n.Eng.Now()
	n.finished = n.finished[:0]
	for len(n.due) > 0 {
		top := n.due[0]
		if top.ver != top.f.heapVer {
			heap.Pop(&n.due)
			continue
		}
		if top.at > now {
			break
		}
		heap.Pop(&n.due)
		f := top.f
		n.syncFlow(f)
		if f.remaining > 1e-6 { // bits; tolerance for float integration
			// Conservative estimate not yet drained; re-arm.
			d := sim.Time(math.Ceil(f.remaining / f.rate * float64(time.Second)))
			if d < 1 {
				d = 1
			}
			f.heapVer++
			f.finishAt = now + d
			heap.Push(&n.due, dueEntry{at: f.finishAt, seq: f.seq, f: f, ver: f.heapVer})
			continue
		}
		delete(n.flows, f.ID)
		n.detach(f)
		f.done = true
		n.finished = append(n.finished, f)
	}
	n.flush()
	n.armCompletion()
	for _, f := range n.finished {
		if f.OnDone != nil {
			// Transfer completion additionally experiences the path's
			// one-way propagation delay for the final bytes to land.
			f.OnDone(now - f.started + f.Path.Delay())
		}
	}
}

// FailLink takes both directions of a physical link out of service:
// affected flows stall at rate 0 (bytes already in flight are kept) and
// new path computations route around it.
func (n *Network) FailLink(pairID string) error { return n.setPair(pairID, false) }

// RestoreLink returns a failed link to service; stalled flows resume.
func (n *Network) RestoreLink(pairID string) error { return n.setPair(pairID, true) }

func (n *Network) setPair(pairID string, up bool) error {
	if err := n.G.SetPairUp(pairID, up); err != nil {
		return err
	}
	for _, suffix := range []string{":fwd", ":rev"} {
		if l, ok := n.G.Link(pairID + suffix); ok {
			if le, ok := n.index[l]; ok {
				n.markDirty(le)
			}
		}
	}
	return nil
}

// SetLinkUp fails or restores one directed link and queues the affected
// component for an incremental reshare. Fault injection uses it for
// node-granular failures, where each incident directed edge goes down on
// its own.
func (n *Network) SetLinkUp(id string, up bool) error {
	if err := n.G.SetLinkUp(id, up); err != nil {
		return err
	}
	if l, ok := n.G.Link(id); ok {
		if le, ok := n.index[l]; ok {
			n.markDirty(le)
		}
	}
	return nil
}

// FlowsOn returns the active flows crossing the directed link, in
// admission order. The fault injector uses it to find flows affected by a
// failure.
func (n *Network) FlowsOn(id string) []*Flow {
	l, ok := n.G.Link(id)
	if !ok {
		return nil
	}
	le, ok := n.index[l]
	if !ok {
		return nil
	}
	return append([]*Flow(nil), le.flows...)
}

// Kill destroys an active flow that a fault has made unservable: it is
// removed like Stop, then OnKilled (not OnDone) fires so the owning
// connection can release balancer slots and quota grants.
func (n *Network) Kill(f *Flow) {
	if cur, ok := n.flows[f.ID]; !ok || cur != f {
		return
	}
	n.Stop(f)
	f.done = true
	if f.OnKilled != nil {
		f.OnKilled()
	}
}

// referenceRates recomputes every active flow's max-min fair share from
// scratch with the original progressive-filling solver. It mutates no
// flow or network state; CheckParity and the property tests compare its
// result against the incremental solver's assignments.
func (n *Network) referenceRates() map[*Flow]float64 {
	type linkState struct {
		residual float64
		weight   float64
	}
	rates := make(map[*Flow]float64, len(n.flows))
	links := make(map[*topo.Link]*linkState)
	unfrozen := make(map[*Flow]bool, len(n.flows))
	for _, f := range n.flows {
		rates[f] = 0
		stalled := false
		for _, l := range f.Path {
			if !l.Up() {
				stalled = true
				break
			}
		}
		if stalled {
			continue
		}
		unfrozen[f] = true
		for _, l := range f.Path {
			st, ok := links[l]
			if !ok {
				st = &linkState{residual: l.Capacity}
				links[l] = st
			}
			st.weight += f.Weight
		}
	}
	for len(unfrozen) > 0 {
		share := math.Inf(1)
		for l, st := range links {
			if st.weight <= 0 {
				delete(links, l)
				continue
			}
			if s := st.residual / st.weight; s < share {
				share = s
			}
		}
		var capped *Flow
		for f := range unfrozen {
			if f.MaxRate > 0 {
				if pw := f.MaxRate / f.Weight; pw < share {
					share = pw
					capped = f
				}
			}
		}
		if math.IsInf(share, 1) {
			for f := range unfrozen {
				rates[f] = 0
				delete(unfrozen, f)
			}
			break
		}
		if capped != nil {
			rates[capped] = capped.MaxRate
			for _, l := range capped.Path {
				st := links[l]
				st.residual -= capped.MaxRate
				if st.residual < 0 {
					st.residual = 0
				}
				st.weight -= capped.Weight
			}
			delete(unfrozen, capped)
			continue
		}
		froze := false
		for l, st := range links {
			if st.weight <= 0 {
				continue
			}
			if st.residual/st.weight > share+1e-12 {
				continue
			}
			for f := range unfrozen {
				onLink := false
				for _, fl := range f.Path {
					if fl == l {
						onLink = true
						break
					}
				}
				if !onLink {
					continue
				}
				r := share * f.Weight
				rates[f] = r
				for _, fl := range f.Path {
					fst := links[fl]
					fst.residual -= r
					if fst.residual < 0 {
						fst.residual = 0
					}
					fst.weight -= f.Weight
				}
				delete(unfrozen, f)
				froze = true
			}
		}
		if !froze {
			for f := range unfrozen {
				rates[f] = share * f.Weight
				delete(unfrozen, f)
			}
		}
	}
	return rates
}

// checkParity compares every active flow's incremental rate against the
// reference solver within 1e-9 relative tolerance.
func (n *Network) checkParity() {
	want := n.referenceRates()
	for _, f := range n.flows {
		w := want[f]
		diff := math.Abs(f.rate - w)
		tol := 1e-9 * math.Max(1, math.Max(math.Abs(f.rate), math.Abs(w)))
		if diff > tol {
			n.ParityMismatches++
			if n.ParityErr == "" {
				n.ParityErr = fmt.Sprintf("flow %s: incremental rate %v, reference %v at t=%v",
					f.ID, f.rate, w, n.Eng.Now())
			}
		}
	}
}
