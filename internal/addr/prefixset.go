package addr

import (
	"cmp"
	"math/bits"
	"slices"
)

// A permit entry set is one value wherever it lives — declared in
// intent.State, installed in permit.Engine, written to a snapshot: a
// []Prefix sorted by (address, length) with no duplicates, never modified
// once built. The functions below are its whole implementation. An edit
// never changes what an earlier slice shows, so a reader holding one needs
// no lock, two holders may share one slice, and two sets are equal exactly
// when slices.Equal says so.

// ComparePrefix orders prefixes by address, then by length.
func ComparePrefix(a, b Prefix) int {
	if c := cmp.Compare(a.Addr, b.Addr); c != 0 {
		return c
	}
	return cmp.Compare(a.Len, b.Len)
}

// CanonicalPrefixes returns the set holding in's prefixes, in a fresh
// slice: in may be unsorted, may repeat itself, and is left untouched.
func CanonicalPrefixes(in []Prefix) []Prefix {
	out := slices.Clone(in)
	slices.SortFunc(out, ComparePrefix)
	return slices.Compact(out)
}

// InsertPrefix returns set with p in it: set itself when p is already a
// member, a fresh slice when p lands inside it. A p that sorts last is
// appended, and like append that may fill set's spare capacity — beyond
// what set shows, so set still reads the same, but the result is then
// set's one successor: do not insert into set again, and insert into a
// set that more than one holder keeps only through slices.Clip(set),
// which makes the append copy. Lists grow in address order as addresses
// are granted in it (E4 builds 40 000-entry lists this way), and the
// append keeps that build linear, not quadratic.
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

// RemovePrefix returns set without p: set itself when p is not a member,
// a fresh slice otherwise.
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

// EqualPrefixes reports whether two sets are equal. Two holders of one
// list — declared and installed — normally share its slice, and then the
// answer needs no element compare.
func EqualPrefixes(a, b []Prefix) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0] || slices.Equal(a, b)
}

// PrefixLengths returns the prefix lengths present in set, bit l set for
// a /l: the summary MatchPrefix needs to search only lengths that can hit.
// Whoever stores a set for lookup stores this word beside it.
func PrefixLengths(set []Prefix) uint64 {
	var lengths uint64
	for _, p := range set {
		lengths |= 1 << uint(p.Len)
	}
	return lengths
}

// MatchPrefix returns the most specific member of set containing ip. It
// is one binary search per length in lengths (= PrefixLengths(set)),
// longest first, whatever the set's size: an all-/32 list of 10^5 entries
// costs one search, a two-/16 list one search of two.
func MatchPrefix(set []Prefix, lengths uint64, ip IP) (Prefix, bool) {
	for lengths != 0 {
		l := bits.Len64(lengths) - 1
		lengths &^= 1 << uint(l)
		p := Prefix{Addr: ip & mask(l), Len: l}
		if _, found := slices.BinarySearchFunc(set, p, ComparePrefix); found {
			return p, true
		}
	}
	return Prefix{}, false
}
