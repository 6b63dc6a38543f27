package addr

import (
	"cmp"
	"math/bits"
	"slices"
)

// A permit entry set is one value wherever it lives — declared in
// intent.State, installed in permit.Engine, written to a snapshot: a
// *PrefixSet, one immutable record held by reference. Its entries are a
// []Prefix sorted by (address, length) with no duplicates — the
// canonical form the slice functions below build and edit — and beside
// them the prefix lengths they hold, which is what lets Match search only
// lengths that can hit. An edit never changes what an earlier set shows,
// so a reader holding one needs no lock, any number of holders may share
// one set, and two sets are equal exactly when EqualSets says so.

// PrefixSet is one canonical permit entry set. A nil *PrefixSet is no
// set at all (an unguarded target); a set with no entries is guarded and
// admits nothing. Its methods accept nil.
type PrefixSet struct {
	entries []Prefix
	lengths uint64 // bit l set for each /l in entries
}

// NewPrefixSet returns the set holding in's prefixes, in a fresh slice:
// in may be unsorted, may repeat itself, and is left untouched. A repeat
// leaves the entries spare capacity.
func NewPrefixSet(in []Prefix) *PrefixSet {
	s := newPrefixSet(len(in))
	copy(s.entries, in)
	slices.SortFunc(s.entries, ComparePrefix)
	s.entries = slices.Compact(s.entries)
	s.lengths = lengthsOf(s.entries)
	return s
}

// newPrefixSet returns a set of n zero entries, to be filled. The one-
// and two-prefix lists tenants mostly declare come in one allocation,
// the entries beside the set, in what the two would take apart.
func newPrefixSet(n int) *PrefixSet {
	switch n {
	case 1:
		s := new(struct {
			PrefixSet
			inline [1]Prefix
		})
		s.entries = s.inline[:]
		return &s.PrefixSet
	case 2:
		s := new(struct {
			PrefixSet
			inline [2]Prefix
		})
		s.entries = s.inline[:]
		return &s.PrefixSet
	}
	return &PrefixSet{entries: make([]Prefix, n)}
}

func lengthsOf(set []Prefix) uint64 {
	var lengths uint64
	for _, p := range set {
		lengths |= 1 << uint(p.Len)
	}
	return lengths
}

// AdoptPrefixSet returns the set whose entries are set, which must be
// canonical already (NewPrefixSet's form) and is adopted, not
// copied: nobody may modify it from here on. A nil set adopts as a set
// with no entries.
func AdoptPrefixSet(set []Prefix) *PrefixSet {
	return &PrefixSet{entries: set, lengths: lengthsOf(set)}
}

// Entries returns the set's entries (shared; not to be modified), nil
// for a nil set.
func (s *PrefixSet) Entries() []Prefix {
	if s == nil {
		return nil
	}
	return s.entries
}

// Len returns the number of entries.
func (s *PrefixSet) Len() int { return len(s.Entries()) }

// Match returns the most specific member of s containing ip. It is one
// binary search per length s holds, longest first, whatever the set's
// size: an all-/32 list of 10^5 entries costs one search, a two-/16 list
// one search of two.
func (s *PrefixSet) Match(ip IP) (Prefix, bool) {
	if s == nil {
		return Prefix{}, false
	}
	for lengths := s.lengths; lengths != 0; {
		l := bits.Len64(lengths) - 1
		lengths &^= 1 << uint(l)
		p := Prefix{Addr: ip & mask(l), Len: l}
		if _, found := slices.BinarySearchFunc(s.entries, p, ComparePrefix); found {
			return p, true
		}
	}
	return Prefix{}, false
}

// Insert returns s with p in it: s itself when p is already a member,
// otherwise a new set built by InsertPrefix — so, like append, it may
// extend s's array into its spare capacity. The result is then s's one
// successor: only a sole holder of s may insert into it (E4's origin
// engine builds 40 000-entry lists this way, in linear time). A holder
// that shares s derives through slices.Clip(s.Entries()) instead, as
// intent.Op.Successor does.
func (s *PrefixSet) Insert(p Prefix) *PrefixSet {
	next := InsertPrefix(s.Entries(), p)
	if s != nil && len(next) == len(s.entries) {
		return s
	}
	return &PrefixSet{entries: next, lengths: s.lengthMask() | 1<<uint(p.Len)}
}

// Remove returns s without p: s itself when p is not a member, a new set
// otherwise. A nil s stays nil.
func (s *PrefixSet) Remove(p Prefix) *PrefixSet {
	next := RemovePrefix(s.Entries(), p)
	if len(next) == s.Len() {
		return s
	}
	return AdoptPrefixSet(next)
}

func (s *PrefixSet) lengthMask() uint64 {
	if s == nil {
		return 0
	}
	return s.lengths
}

// EqualSets reports whether two sets hold the same entries; nil and a set
// with no entries compare equal. Two holders of one list — declared and
// installed — normally share its record, and then the answer needs no
// element compare.
func EqualSets(a, b *PrefixSet) bool { return a == b || slices.Equal(a.Entries(), b.Entries()) }

// ComparePrefix orders prefixes by address, then by length.
func ComparePrefix(a, b Prefix) int {
	if c := cmp.Compare(a.Addr, b.Addr); c != 0 {
		return c
	}
	return cmp.Compare(a.Len, b.Len)
}

// InsertPrefix returns canonical entries set with p in them: set itself
// when p is already a member, a fresh slice when p lands inside it. A p
// that sorts last is appended, and like append that may fill set's spare
// capacity — beyond what set shows, so set still reads the same, but the
// result is then set's one successor: do not insert into set again, and
// insert into entries that more than one holder keeps only through
// slices.Clip(set), which makes the append copy. Lists grow in address
// order as addresses are granted in it, and the append keeps that build
// linear, not quadratic.
func InsertPrefix(set []Prefix, p Prefix) []Prefix {
	i, found := slices.BinarySearchFunc(set, p, ComparePrefix)
	if found {
		return set
	}
	if i == len(set) {
		return append(set, p)
	}
	out := make([]Prefix, len(set)+1)
	copy(out, set[:i])
	out[i] = p
	copy(out[i+1:], set[i:])
	return out
}

// RemovePrefix returns canonical entries set without p: set itself when
// p is not a member, a fresh slice otherwise.
func RemovePrefix(set []Prefix, p Prefix) []Prefix {
	i, found := slices.BinarySearchFunc(set, p, ComparePrefix)
	if !found {
		return set
	}
	out := make([]Prefix, len(set)-1)
	copy(out, set[:i])
	copy(out[i:], set[i+1:])
	return out
}
