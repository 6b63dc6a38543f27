// An external test package: routing imports addr, and its trie is the
// reference the prefix set's lookup is held to.
package addr_test

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"declnet/internal/addr"
	"declnet/internal/routing"
)

// randomPrefixes draws n prefixes clustered so that sets nest and collide:
// a few base addresses, any length 0..32 (so /0 and /32 both occur), and
// every third draw repeats an earlier one.
func randomPrefixes(rng *rand.Rand, n int) []addr.Prefix {
	bases := []addr.IP{0, 0x0a000000, 0x0a010000, 0x0a010203, 0xc0a80000, 0xffffffff}
	out := make([]addr.Prefix, 0, n)
	for len(out) < n {
		if len(out) > 0 && rng.Intn(3) == 0 {
			out = append(out, out[rng.Intn(len(out))])
			continue
		}
		ip := bases[rng.Intn(len(bases))] ^ addr.IP(rng.Intn(4))<<uint(rng.Intn(32))
		out = append(out, addr.NewPrefix(ip, rng.Intn(33)))
	}
	return out
}

// probesFor returns addresses on and beside every boundary of the set,
// plus a few anywhere.
func probesFor(rng *rand.Rand, set []addr.Prefix) []addr.IP {
	probes := []addr.IP{0, 0xffffffff, addr.IP(rng.Uint32()), addr.IP(rng.Uint32())}
	for _, p := range set {
		probes = append(probes, p.First(), p.Last(), p.First()-1, p.Last()+1)
	}
	return probes
}

func TestPrefixSetMatchesTrie(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for round := 0; round < 300; round++ {
		in := randomPrefixes(rng, rng.Intn(40))
		set := addr.CanonicalPrefixes(in)
		var trie routing.Trie[addr.Prefix]
		for _, p := range in {
			trie.Insert(p, p)
		}
		if !slices.IsSortedFunc(set, addr.ComparePrefix) || len(set) != trie.Len() {
			t.Fatalf("round %d: CanonicalPrefixes(%v) = %v, want %d distinct sorted entries", round, in, set, trie.Len())
		}
		// The trie's pre-order walk is (address, length) order too.
		if want := trie.Prefixes(); !slices.Equal(set, want) {
			t.Fatalf("round %d: set %v, trie holds %v", round, set, want)
		}
		lengths := addr.PrefixLengths(set)
		for _, ip := range probesFor(rng, set) {
			got, ok := addr.MatchPrefix(set, lengths, ip)
			want, wantOK := trie.Lookup(ip)
			if ok != wantOK || got != want {
				t.Fatalf("round %d: MatchPrefix(%v, %s) = %v/%v, trie's longest match %v/%v", round, set, ip, got, ok, want, wantOK)
			}
		}
	}
}

func TestPrefixSetEditsMatchRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for round := 0; round < 300; round++ {
		var set, members []addr.Prefix
		for _, p := range randomPrefixes(rng, 1+rng.Intn(30)) {
			before := slices.Clone(set)
			held := set
			if rng.Intn(3) == 0 {
				set = addr.RemovePrefix(set, p)
				members = slices.DeleteFunc(members, func(m addr.Prefix) bool { return m == p })
			} else {
				set = addr.InsertPrefix(set, p)
				members = append(members, p)
			}
			if !slices.Equal(held, before) {
				t.Fatalf("round %d: editing %v for %v wrote into the old slice: %v", round, before, p, held)
			}
			if want := addr.CanonicalPrefixes(members); !slices.Equal(set, want) {
				t.Fatalf("round %d: after editing for %v the set is %v, rebuilt from scratch %v", round, p, set, want)
			}
		}
	}
}

// A list built in address order — how E4 builds its 40 000-entry lists,
// one permit per newly granted source — costs what append costs, not one
// whole copy per entry (3.2 GB for this build), and every slice handed
// out along the way still reads as it did.
func TestInOrderBuildIsLinear(t *testing.T) {
	const n = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var set []addr.Prefix
	held := map[int][]addr.Prefix{}
	for i := 0; i < n; i++ {
		set = addr.InsertPrefix(set, addr.NewPrefix(addr.IP(0x0a000000+i), 32))
		if i%1000 == 0 {
			held[i+1] = set
		}
	}
	runtime.ReadMemStats(&after)
	final := uint64(n * unsafe.Sizeof(addr.Prefix{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > 8*final {
		t.Fatalf("building %d entries in order allocated %d B, want under 8x the list's %d", n, got, final)
	}
	for size, s := range held {
		if len(s) != size || s[size-1].Addr != addr.IP(0x0a000000+size-1) || !slices.Equal(s, set[:size]) {
			t.Fatalf("the %d-entry slice handed out during the build no longer reads as it did", size)
		}
	}
}
