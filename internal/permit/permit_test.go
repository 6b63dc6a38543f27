package permit

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"declnet/internal/addr"
	"declnet/internal/sim"
)

func ipa(s string) addr.IP     { return addr.MustParseIP(s) }
func pfx(s string) addr.Prefix { return addr.MustParsePrefix(s) }

func TestDefaultOff(t *testing.T) {
	e := NewEngine()
	if e.Check(ipa("1.2.3.4"), ipa("198.18.0.1")) {
		t.Fatal("endpoint with no permit list accepted traffic (default-off violated)")
	}
	e.Set(ipa("198.18.0.1"), nil)
	if e.Check(ipa("1.2.3.4"), ipa("198.18.0.1")) {
		t.Fatal("empty permit list accepted traffic")
	}
}

func TestExactAndPrefixEntries(t *testing.T) {
	e := NewEngine()
	dst := ipa("198.18.0.1")
	e.Set(dst, []Entry{pfx("203.0.113.7/32"), pfx("10.0.0.0/8")})
	if !e.Check(ipa("203.0.113.7"), dst) {
		t.Fatal("exact /32 entry not honored")
	}
	if e.Check(ipa("203.0.113.8"), dst) {
		t.Fatal("adjacent address admitted by /32 entry")
	}
	if !e.Check(ipa("10.200.1.1"), dst) {
		t.Fatal("prefix entry not honored")
	}
	if e.Check(ipa("11.0.0.1"), dst) {
		t.Fatal("address outside all entries admitted")
	}
}

// Incremental edits: a replica set's origin derives each successor list
// from the one it holds and installs it, one update per edit.
func TestPermitRevoke(t *testing.T) {
	rs := NewReplicaSet(sim.New(1), 0, 0)
	e := rs.Origin()
	dst := ipa("198.18.0.1")
	rs.Permit(dst, pfx("192.0.2.1/32"))
	if !e.Check(ipa("192.0.2.1"), dst) {
		t.Fatal("permitted source rejected")
	}
	rs.Revoke(dst, pfx("192.0.2.1/32"))
	if e.Check(ipa("192.0.2.1"), dst) {
		t.Fatal("revoked source admitted")
	}
	rs.Revoke(dst, pfx("192.0.2.1/32"))
	if d := e.Explain(0, dst); d.Version != 2 || d.Entries != 0 {
		t.Fatalf("after a double revoke: %+v, want the empty list at version 2", d)
	}
	rs.Revoke(ipa("9.9.9.9"), pfx("1.1.1.1/32"))
	if _, guarded := e.List(ipa("9.9.9.9")); guarded {
		t.Fatal("revoke on unknown dst created a list")
	}
	if n := e.Updates.Load(); n != 3 {
		t.Fatalf("Updates = %d after three edits of a guarded list, want 3", n)
	}
}

func TestDropEndpoint(t *testing.T) {
	e := NewEngine()
	dst := ipa("198.18.0.1")
	e.Set(dst, []Entry{pfx("0.0.0.0/0")})
	e.Drop(dst)
	if e.Check(ipa("1.1.1.1"), dst) {
		t.Fatal("dropped endpoint still admits traffic")
	}
	if e.Endpoints() != 0 {
		t.Fatalf("Endpoints = %d after drop", e.Endpoints())
	}
}

func TestCounters(t *testing.T) {
	e := NewEngine()
	dst := ipa("198.18.0.1")
	if epoch := e.Set(dst, []Entry{pfx("10.0.0.0/8"), pfx("1.1.1.1/32")}); epoch != 2 {
		t.Fatalf("Set of two entries returned epoch %d, want 2", epoch)
	}
	e.Check(ipa("10.0.0.1"), dst)
	e.Check(ipa("2.2.2.2"), dst)
	if e.Lookups.Load() != 2 || e.Updates.Load() != 1 {
		t.Fatalf("Lookups,Updates = %d,%d", e.Lookups.Load(), e.Updates.Load())
	}
	if e.TotalEntries() != 2 {
		t.Fatalf("TotalEntries = %d", e.TotalEntries())
	}
}

// A List read out of the engine is a snapshot: every mutation installs a
// fresh slice, so the value itself is the copy Clone used to make.
func TestListCloneAndEntries(t *testing.T) {
	rs := NewReplicaSet(sim.New(1), 0, 0)
	e := rs.Origin()
	dst := ipa("198.18.0.1")
	rs.Permit(dst, pfx("10.0.0.0/8"))
	rs.Permit(dst, pfx("192.0.2.1/32"))
	c, _ := e.List(dst)
	held := e.EntriesOf(dst)
	rs.Revoke(dst, pfx("10.0.0.0/8"))
	if !c.Permits(ipa("10.5.5.5")) || c.Len() != 2 {
		t.Fatal("a list read earlier changed under a later Revoke")
	}
	if want := []Entry{pfx("10.0.0.0/8"), pfx("192.0.2.1/32")}; !slices.Equal(held, want) {
		t.Fatalf("entries read earlier = %v after a later Revoke, want %v", held, want)
	}
	if d := e.Explain(ipa("10.5.5.5"), dst); d.Allowed || d.Version != 3 || d.Entries != 1 {
		t.Fatalf("after Revoke: %+v, want a one-entry list at version 3 that denies", d)
	}
}

// Install adopts the set it is handed — the engine holds the caller's
// record, not a copy — at the epoch it is given, in a two-word slot.
func TestInstallAdoptsTheSet(t *testing.T) {
	e := NewEngine()
	dst := ipa("198.18.0.1")
	set := addr.NewPrefixSet([]Entry{pfx("10.0.0.0/8"), pfx("1.1.1.1/32"), pfx("10.0.0.0/8")})
	if epoch := e.Install(dst, set, 3); epoch != 3 {
		t.Fatalf("Install returned epoch %d, want 3", epoch)
	}
	l, _ := e.List(dst)
	if l.Set() != set || l.Version() != 3 {
		t.Fatalf("installed %v at version %d, want the caller's own set at version 3", l.Entries(), l.Version())
	}
	if equal, _ := e.EqualsSet(dst, set); !equal || !e.Check(ipa("10.1.2.3"), dst) {
		t.Fatal("the installed set does not read as the one handed over")
	}
	if size := unsafe.Sizeof(List{}); size != 16 {
		t.Fatalf("a List takes %d bytes of its page slot, want 16: a set reference and an epoch", size)
	}
}

// Entries come back in the canonical (address, length) order whatever
// the insertion order and whichever verb built the list, duplicates gone.
func TestEntriesDeterministic(t *testing.T) {
	dst := ipa("198.18.0.1")
	mk := func(order []string) []Entry {
		rs := NewReplicaSet(sim.New(1), 0, 0)
		for _, s := range order {
			rs.Permit(dst, pfx(s))
		}
		return rs.Origin().EntriesOf(dst)
	}
	specs := []string{"192.0.2.9/32", "10.0.0.0/8", "192.0.2.1/32", "172.16.0.0/12", "1.1.1.1/32", "10.0.0.0/8"}
	want := mk(specs)
	if len(want) != 5 || !slices.IsSortedFunc(want, addr.ComparePrefix) {
		t.Fatalf("Entries = %v, want the five distinct entries in canonical order", want)
	}
	slices.Reverse(specs)
	if got := mk(specs); !slices.Equal(got, want) {
		t.Fatalf("Entries = %v (reversed insertion), want %v", got, want)
	}
	e := NewEngine()
	var all []Entry
	for _, s := range specs {
		all = append(all, pfx(s))
	}
	e.Set(dst, all)
	if got := e.EntriesOf(dst); !slices.Equal(got, want) {
		t.Fatalf("Entries = %v (one Set), want %v", got, want)
	}
	if !slices.Equal(all[:2], []Entry{pfx(specs[0]), pfx(specs[1])}) {
		t.Fatal("Set sorted its caller's slice in place")
	}
	// Version counts mutations applied, not distinct entries kept.
	if v := e.Explain(0, dst).Version; v != uint64(len(specs)) {
		t.Fatalf("Version after a Set of %d entries = %d", len(specs), v)
	}
}

// What one installed list costs, counted rather than timed: the two-/16
// list every BENCHMARK.json workload builds per endpoint, map slot
// included. The map-and-trie form this replaced measured 533 B.
func TestListFootprint(t *testing.T) {
	const lists = 20000
	entries := []Entry{pfx("100.64.0.0/16"), pfx("104.255.0.0/16")}
	e := NewEngine()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < lists; i++ {
		e.Set(addr.IP(0x64400000+i), entries)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(after.HeapAlloc-before.HeapAlloc) / lists
	t.Logf("%.0f B per two-/16 list", per)
	if per > 200 {
		t.Fatalf("an installed two-/16 list costs %.0f B, budget 200", per)
	}
	runtime.KeepAlive(e)
}

// Property: the engine agrees with a naive oracle over arbitrary
// add/remove/check sequences.
func TestQuickEngineMatchesOracle(t *testing.T) {
	f := func(ops []uint32, probes []uint32) bool {
		rs := NewReplicaSet(sim.New(1), 0, 0)
		e := rs.Origin()
		oracle := make(map[addr.IP][]Entry)
		dst := ipa("198.18.0.1")
		for _, op := range ops {
			en := addr.NewPrefix(addr.IP(op), 8+int(op%25)) // /8../32
			if op%3 == 0 {
				rs.Revoke(dst, en)
				list := oracle[dst]
				for i, x := range list {
					if x == en {
						oracle[dst] = append(list[:i], list[i+1:]...)
						break
					}
				}
			} else {
				rs.Permit(dst, en)
				found := false
				for _, x := range oracle[dst] {
					if x == en {
						found = true
						break
					}
				}
				if !found {
					oracle[dst] = append(oracle[dst], en)
				}
			}
		}
		for _, pr := range probes {
			src := addr.IP(pr)
			want := false
			for _, en := range oracle[dst] {
				if en.Contains(src) {
					want = true
					break
				}
			}
			if e.Check(src, dst) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaPropagationLag(t *testing.T) {
	eng := sim.New(1)
	rs := NewReplicaSet(eng, 3, 50*time.Millisecond)
	dst := ipa("198.18.0.1")
	src := ipa("203.0.113.7")
	rs.Permit(dst, pfx("203.0.113.7/32"))
	// Origin sees it immediately; replicas do not.
	if !rs.Origin().Check(src, dst) {
		t.Fatal("origin missing immediate update")
	}
	if rs.Check(0, src, dst) {
		t.Fatal("replica saw update before propagation lag")
	}
	if rs.Consistent() {
		t.Fatal("Consistent() true with update in flight")
	}
	eng.RunUntil(49 * time.Millisecond)
	if rs.Check(1, src, dst) {
		t.Fatal("replica saw update 1ms early")
	}
	eng.RunUntil(51 * time.Millisecond)
	for i := 0; i < rs.Replicas(); i++ {
		if !rs.Check(i, src, dst) {
			t.Fatalf("replica %d missing update after lag", i)
		}
	}
	if !rs.Consistent() {
		t.Fatal("Consistent() false after propagation")
	}
}

func TestReplicaRevokeWindow(t *testing.T) {
	// The dangerous window: a revoked source is still admitted at
	// replicas until propagation completes — the staleness E4 quantifies.
	eng := sim.New(1)
	rs := NewReplicaSet(eng, 2, 20*time.Millisecond)
	dst := ipa("198.18.0.1")
	src := ipa("203.0.113.7")
	rs.Permit(dst, pfx("203.0.113.7/32"))
	eng.RunUntil(25 * time.Millisecond)
	rs.Revoke(dst, pfx("203.0.113.7/32"))
	if !rs.Check(0, src, dst) {
		t.Fatal("revoke visible at replica instantly (no lag modeled)")
	}
	eng.RunUntil(50 * time.Millisecond)
	if rs.Check(0, src, dst) {
		t.Fatal("revoke never propagated")
	}
}

func TestReplicaSetAndDrop(t *testing.T) {
	eng := sim.New(1)
	rs := NewReplicaSet(eng, 2, 10*time.Millisecond)
	dst := ipa("198.18.0.9")
	rs.Set(dst, []Entry{pfx("10.0.0.0/8")})
	eng.Run()
	if !rs.Check(1, ipa("10.1.1.1"), dst) {
		t.Fatal("Set did not propagate")
	}
	rs.Drop(dst)
	eng.Run()
	if rs.Check(1, ipa("10.1.1.1"), dst) {
		t.Fatal("Drop did not propagate")
	}
	if rs.String() == "" {
		t.Fatal("empty String()")
	}
	if rs.Lag() != 10*time.Millisecond {
		t.Fatalf("Lag = %v", rs.Lag())
	}
}
