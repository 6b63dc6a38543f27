package intent

import (
	"encoding/binary"
	"maps"
	"slices"

	"declnet/internal/addr"
)

// Placement is where a granted EIP lives and whose it is: its tenant, the
// VM it was granted for, and that VM's provider and region. It is
// immutable, and a State holds one per distinct tuple, which every
// endpoint placed there shares (interns).
type Placement struct {
	Tenant   string `json:"tenant"`
	VM       string `json:"vm"`
	Provider string `json:"provider"`
	Region   string `json:"region"`
}

// interns is a State's table of the immutable values its records share:
// one permit set per distinct entry list and one placement per distinct
// tuple, each with the number of declared records that hold it. A value
// joins on its first holder and leaves with its last, so the tables hold
// what is declared and nothing else. A record holds the table's pointer:
// equal lists are one *addr.PrefixSet and equal placements one
// *Placement however the records were built — a fold, a replayed frame
// or a decoded snapshot. Only the fold's writer (under the log's lock)
// and the decoder touch it.
type interns struct {
	sets   map[string]*heldSet
	places map[Placement]*heldPlace

	scratch []addr.Prefix // the list being canonicalized or edited
	key     []byte        // the sets key being looked up
}

type heldSet struct {
	set *addr.PrefixSet
	key string
	n   int
}

type heldPlace struct {
	p *Placement
	n int
}

// keyOf is the sets table's key of an entry list, in t.key: each entry's
// address, then its length as a varint (a decoded list's length is any
// int).
func (t *interns) keyOf(entries []addr.Prefix) []byte {
	t.key = t.key[:0]
	for _, p := range entries {
		t.key = binary.AppendVarint(binary.BigEndian.AppendUint32(t.key, uint32(p.Addr)), int64(p.Len))
	}
	return t.key
}

// lookup returns the held set whose entries are entries, or nil.
func (t *interns) lookup(entries []addr.Prefix) *addr.PrefixSet {
	if h := t.sets[string(t.keyOf(entries))]; h != nil {
		return h.set
	}
	return nil
}

// canonical returns the set holding entries, which may be unsorted and
// repeat themselves: they are sorted and deduplicated in scratch space,
// so a list already held costs no allocation; any other is a new set,
// built from entries, that nobody holds yet.
func (t *interns) canonical(entries []addr.Prefix) *addr.PrefixSet {
	t.scratch = append(t.scratch[:0], entries...)
	slices.SortFunc(t.scratch, addr.ComparePrefix)
	t.scratch = slices.Compact(t.scratch)
	if set := t.lookup(t.scratch); set != nil {
		return set
	}
	return addr.NewPrefixSet(entries)
}

// successor returns the set a permit (insert each of op's entries) or a
// revoke (remove each) leaves on base: base itself when the op changes
// nothing, else the held set of the result, edited in scratch space.
func (t *interns) successor(op *Op, base *addr.PrefixSet) *addr.PrefixSet {
	t.scratch = append(t.scratch[:0], base.Entries()...)
	for _, e := range op.Entries {
		i, found := slices.BinarySearchFunc(t.scratch, e, addr.ComparePrefix)
		switch {
		case op.Verb == OpPermit && !found:
			t.scratch = slices.Insert(t.scratch, i, e)
		case op.Verb == OpRevoke && found:
			t.scratch = slices.Delete(t.scratch, i, i+1)
		}
	}
	if base != nil && len(t.scratch) == base.Len() { // a permit only grows, a revoke only shrinks
		return base
	}
	if set := t.lookup(t.scratch); set != nil {
		return set
	}
	return addr.NewPrefixSet(t.scratch)
}

// hold counts one more record holding set's list and returns the held
// set for it: set itself when the list was not held yet, the set already
// held otherwise. A nil set (no list) is nothing to hold. No holder
// appends into a held set's entries — the fold edits a copy in scratch
// space, and an installed list that drifted derives its successor through
// a clipped copy (Op.Successor) — so a set with spare capacity (what
// addr.NewPrefixSet leaves after a repeat) is held as it is.
func (t *interns) hold(set *addr.PrefixSet) *addr.PrefixSet {
	if set == nil {
		return nil
	}
	if h := t.sets[string(t.keyOf(set.Entries()))]; h != nil {
		h.n++
		return h.set
	}
	if t.sets == nil {
		t.sets = make(map[string]*heldSet)
	}
	h := &heldSet{set: set, key: string(t.key), n: 1}
	t.sets[h.key] = h
	return set
}

// drop counts one record fewer holding set, which leaves the table with
// its last holder. A set the table did not hand out (a record built
// outside a fold) was never counted.
func (t *interns) drop(set *addr.PrefixSet) {
	if set == nil {
		return
	}
	if h := t.sets[string(t.keyOf(set.Entries()))]; h != nil && h.set == set {
		if h.n--; h.n == 0 {
			delete(t.sets, h.key)
		}
	}
}

// place is hold for a placement: the held *Placement equal to p.
func (t *interns) place(p Placement) *Placement {
	if h := t.places[p]; h != nil {
		h.n++
		return h.p
	}
	if t.places == nil {
		t.places = make(map[Placement]*heldPlace)
	}
	h := &heldPlace{p: new(Placement), n: 1} // a fresh copy: taking &p would move every call's p to the heap
	*h.p = p
	t.places[p] = h
	return h.p
}

// unplace is drop for a placement.
func (t *interns) unplace(p *Placement) {
	if p == nil {
		return
	}
	if h := t.places[*p]; h != nil && h.p == p {
		if h.n--; h.n == 0 {
			delete(t.places, *p)
		}
	}
}

// clone copies the tables — their values are immutable and shared — for
// a State whose records share this one's.
func (t *interns) clone() interns {
	c := interns{sets: maps.Clone(t.sets), places: maps.Clone(t.places)}
	for k, h := range c.sets {
		c.sets[k] = &heldSet{set: h.set, key: h.key, n: h.n}
	}
	for k, h := range c.places {
		c.places[k] = &heldPlace{p: h.p, n: h.n}
	}
	return c
}

// PermitSet returns the set a set_permit of entries declares, which may
// be unsorted and repeat themselves: the set a record already holds for
// that list, or a new one the fold will hold. Core asks the frame's State
// for it, under the frame's lock.
func (s *State) PermitSet(entries []addr.Prefix) *addr.PrefixSet {
	return s.held.canonical(entries)
}

// Interned returns the distinct permit sets and placements the state's
// records hold.
func (s *State) Interned() (sets, placements int) {
	return len(s.held.sets), len(s.held.places)
}
