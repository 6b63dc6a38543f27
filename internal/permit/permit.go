// Package permit implements the provider-side in-network access control of
// §4 of the paper: every endpoint IP is "public but default-off", and only
// sources explicitly enumerated in the tenant's permit-list may reach it.
// The engine answers the scalability question of §6(i) — "does a (dynamic)
// shared permit-list between tenants and cloud providers scale?" — so it
// tracks lookup cost, memory, update churn, and (via ReplicaSet)
// propagation staleness across distributed enforcement points.
//
// An Engine keeps its lists in an addr.Table, the address-indexed store
// every address-keyed provider table uses: one stripe lock per /16, so
// the lists of one region share a lock that no other region's checks
// take.
package permit

import (
	"fmt"
	"slices"
	"sync/atomic"

	"declnet/internal/addr"
	"declnet/internal/sim"
)

// Entry is one permit-list element: a source prefix (a /32 permits a
// single EIP).
type Entry = addr.Prefix

// List is the permit state installed for one destination: a reference
// to its entry set — the very addr.PrefixSet intent.State declares for
// it, on a converged target — and its epoch, two words. A List is an
// immutable value; the engine replaces it whole under the stripe lock, so
// one read out of the table stays consistent after the lock is dropped.
type List struct {
	set *addr.PrefixSet
	// version counts the mutations applied to this target's list since it
	// was last replaced whole (a Set of n entries reads n): the
	// propagation epoch Decision.Version reports.
	version uint64
}

// Permits reports whether src may reach the guarded endpoint.
func (l List) Permits(src addr.IP) bool {
	_, ok := l.set.Match(src)
	return ok
}

// Len returns the number of entries.
func (l List) Len() int { return l.set.Len() }

// Entries returns the entries (shared; not to be modified).
func (l List) Entries() []Entry { return l.set.Entries() }

// Set returns the entry set (shared).
func (l List) Set() *addr.PrefixSet { return l.set }

// Version returns the list's propagation epoch.
func (l List) Version() uint64 { return l.version }

// Engine is one enforcement point's view of all tenants' permit lists,
// keyed by destination EIP. Default-off: an EIP with no list drops
// everything. Mutations in different regions never serialize against
// each other, and an admission check shares a read lock only with writes
// to its own region. The zero value is an empty engine.
type Engine struct {
	lists addr.Table[List]
	// Lookups and Updates count enforcement work for the E4 experiment.
	// Atomic because admission checks run on the concurrent read plane
	// while control-plane writes mutate the lists under stripe locks.
	Lookups atomic.Uint64
	Updates atomic.Uint64
}

// NewEngine returns an empty engine.
func NewEngine() *Engine { return &Engine{} }

// Install makes set dst's list at propagation epoch version, and returns
// the epoch. set is held by reference: the caller and the engine share
// one record from here on, as any number of targets may. Whoever edits a
// list derives its successor (from List's Set and Version) and installs
// that; one Install is one update.
func (e *Engine) Install(dst addr.IP, set *addr.PrefixSet, version uint64) uint64 {
	e.put(dst, List{set: set, version: version})
	return version
}

// Set replaces dst's list with entries, which may be unsorted and repeat
// themselves and are copied, and returns the epoch: len(entries), the
// mutations a fresh list took (the E4 accounting the golden tables pin).
func (e *Engine) Set(dst addr.IP, entries []Entry) uint64 {
	return e.Install(dst, addr.NewPrefixSet(entries), uint64(len(entries)))
}

// put installs l for dst: one update. The list is built before the stripe
// lock is taken, which is held only for the install.
func (e *Engine) put(dst addr.IP, l List) {
	e.lists.Put(dst, l)
	e.Updates.Add(1)
}

// Drop removes dst's entire list (endpoint teardown).
func (e *Engine) Drop(dst addr.IP) {
	e.lists.Delete(dst)
	e.Updates.Add(1)
}

// Check enforces default-off admission: true only when dst has a list
// that permits src. The stripe read lock covers the table read only; the
// search runs on the immutable list it returned.
func (e *Engine) Check(src, dst addr.IP) bool {
	e.Lookups.Add(1)
	l, _ := e.List(dst)
	return l.Permits(src)
}

// List returns dst's installed list, and whether dst is guarded at all.
func (e *Engine) List(dst addr.IP) (List, bool) { return e.lists.Get(dst) }

// Decision is a diagnostic replay of one admission check: the verdict plus
// the evidence a tenant needs to understand it — whether dst is guarded at
// all, which entry matched (longest prefix wins), and at which propagation
// epoch (list version) the verdict was computed.
type Decision struct {
	Allowed bool
	// HasList is false when dst has no permit list at all (the pure
	// default-off drop, as opposed to a list that excludes src).
	HasList bool
	// Matched is the permitting entry when Allowed (the most specific
	// match when several overlap).
	Matched Entry
	// Version is the list's mutation count — the propagation epoch a
	// replica would compare against the origin.
	Version uint64
	// Entries is the list size, for "is this list even populated" triage.
	Entries int
}

// Explain replays the admission check for src->dst without counting it as
// enforcement work (Lookups is untouched — diagnosis must not skew E4's
// cost figures). Unlike Check it also reports which entry admitted the
// flow and the list's version.
func (e *Engine) Explain(src, dst addr.IP) Decision {
	l, ok := e.List(dst)
	if !ok {
		return Decision{}
	}
	d := Decision{HasList: true, Version: l.version, Entries: l.Len()}
	d.Matched, d.Allowed = l.set.Match(src)
	return d
}

// TargetsOf returns the guarded destinations whose stripe is phase mod
// mod, sorted: the reconciler's anti-entropy rotation walks 1/mod of the
// engine per sweep with it, and phases 0..mod-1 together list every
// destination once. mod ≤ 1 lists them all.
func (e *Engine) TargetsOf(phase, mod int) []addr.IP {
	out := e.lists.PhaseKeys(phase, mod)
	slices.Sort(out)
	return out
}

// TargetsWithin returns the guarded destinations inside block, sorted.
// When block is a /16 or longer — the granularity regions are carved
// at — only the one stripe holding it is read, which keeps the digest's
// per-region section O(region), not O(engine).
func (e *Engine) TargetsWithin(block addr.Prefix) []addr.IP {
	out := e.lists.Keys(block)
	slices.Sort(out)
	return out
}

// EqualsSet reports whether dst's installed set equals want (a declared
// list), and whether dst is guarded at all. A converged target's two
// holders share one record, so this is a pointer compare — no copy, no
// sort, no allocation, and an element compare only for a list that
// drifted; the steady-state reconciler compares every declared list this
// way, every sweep.
func (e *Engine) EqualsSet(dst addr.IP, want *addr.PrefixSet) (equal, hasList bool) {
	l, ok := e.List(dst)
	return ok && addr.EqualSets(l.set, want), ok
}

// EntriesOf returns dst's installed entries (shared; not to be
// modified), or nil when dst is unguarded.
func (e *Engine) EntriesOf(dst addr.IP) []Entry {
	l, _ := e.List(dst)
	return l.Entries()
}

// Endpoints returns the number of guarded EIPs.
func (e *Engine) Endpoints() int { return e.lists.Len() }

// TotalEntries returns the total permit entries across all lists — the
// memory-scale figure for E4 — summed in place, copying no list.
func (e *Engine) TotalEntries() int {
	var n int
	e.lists.Each(func(l List) { n += l.Len() })
	return n
}

// update is a replication log record: the list the origin installed for
// dst, or its drop.
type update struct {
	dst  addr.IP
	list List
	drop bool
}

// ReplicaSet models the provider pushing permit updates from a control
// point to n distributed enforcement points with a propagation delay —
// the consistency dimension of §6(i). Reads go to a chosen replica;
// writes apply locally at the origin immediately and at each replica
// after its lag. StalenessWindow reports the longest interval during
// which replicas could disagree.
//
// The origin derives every list and the replicas install the very list it
// installed, so a list is built once however many points enforce it. The
// origin alone derives from a list, which is what lets Permit extend one
// in place (addr.PrefixSet.Insert) while replicas still hold shorter
// views.
type ReplicaSet struct {
	eng      *sim.Engine
	origin   *Engine
	replicas []*Engine
	lag      sim.Time
	// PendingUpdates counts updates in flight; MaxStaleness tracks the
	// worst-case observed propagation interval.
	PendingUpdates int
	applied        uint64
	issued         uint64
}

// NewReplicaSet returns a set with n replicas behind the given one-way
// propagation lag.
func NewReplicaSet(eng *sim.Engine, n int, lag sim.Time) *ReplicaSet {
	rs := &ReplicaSet{eng: eng, origin: NewEngine(), lag: lag}
	for i := 0; i < n; i++ {
		rs.replicas = append(rs.replicas, NewEngine())
	}
	return rs
}

// Origin returns the control-plane engine (authoritative state).
func (rs *ReplicaSet) Origin() *Engine { return rs.origin }

// Replica returns enforcement point i.
func (rs *ReplicaSet) Replica(i int) *Engine { return rs.replicas[i] }

// Replicas returns the number of enforcement points.
func (rs *ReplicaSet) Replicas() int { return len(rs.replicas) }

// Set replaces dst's list everywhere (lagged at replicas).
func (rs *ReplicaSet) Set(dst addr.IP, entries []Entry) {
	rs.origin.Set(dst, entries)
	l, _ := rs.origin.List(dst)
	rs.propagate(update{dst: dst, list: l})
}

// Permit adds one entry everywhere (lagged at replicas).
func (rs *ReplicaSet) Permit(dst addr.IP, en Entry) {
	l, _ := rs.origin.List(dst)
	rs.install(dst, List{set: l.set.Insert(en), version: l.version + 1})
}

// Revoke removes one entry everywhere (lagged at replicas). An unguarded
// destination has nothing to remove, and nothing happens.
func (rs *ReplicaSet) Revoke(dst addr.IP, en Entry) {
	l, ok := rs.origin.List(dst)
	if !ok {
		return
	}
	if rest := l.set.Remove(en); rest != l.set {
		l = List{set: rest, version: l.version + 1}
	}
	rs.install(dst, l)
}

// Drop removes dst's list everywhere (lagged at replicas).
func (rs *ReplicaSet) Drop(dst addr.IP) {
	rs.origin.Drop(dst)
	rs.propagate(update{dst: dst, drop: true})
}

// install puts l at the origin now and at every replica after the lag.
func (rs *ReplicaSet) install(dst addr.IP, l List) {
	rs.origin.put(dst, l)
	rs.propagate(update{dst: dst, list: l})
}

func (rs *ReplicaSet) propagate(u update) {
	rs.issued++
	rs.PendingUpdates++
	rs.eng.After(rs.lag, func() {
		for _, r := range rs.replicas {
			if u.drop {
				r.Drop(u.dst)
			} else {
				r.put(u.dst, u.list)
			}
		}
		rs.applied++
		rs.PendingUpdates--
	})
}

// Check enforces at replica i (the packet's nearest enforcement point).
func (rs *ReplicaSet) Check(replica int, src, dst addr.IP) bool {
	return rs.replicas[replica].Check(src, dst)
}

// Consistent reports whether every replica has applied every issued
// update.
func (rs *ReplicaSet) Consistent() bool { return rs.PendingUpdates == 0 }

// Lag returns the propagation delay.
func (rs *ReplicaSet) Lag() sim.Time { return rs.lag }

// String summarizes replication state.
func (rs *ReplicaSet) String() string {
	return fmt.Sprintf("replicas=%d lag=%v pending=%d issued=%d",
		len(rs.replicas), rs.lag, rs.PendingUpdates, rs.issued)
}
