package addr

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// tableKeys fills a table with keys in 128 /16 blocks, so every stripe
// holds keys of two blocks, plus a handful of random ones.
func tableKeys(tab *Table[int]) []IP {
	rng := rand.New(rand.NewSource(1))
	var keys []IP
	for block := 0; block < 2*Stripes; block++ {
		for host := 0; host < 3; host++ {
			keys = append(keys, IP(0x0a000000+block<<16+host*97+1))
		}
	}
	for i := 0; i < 64; i++ {
		keys = append(keys, IP(rng.Uint32()))
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	for i, ip := range keys {
		tab.Put(ip, i)
	}
	return keys
}

func TestTableGetPutDelete(t *testing.T) {
	// The zero value is usable, and a and b share a stripe.
	var tab Table[string]
	a, b := MustParseIP("10.1.0.1"), MustParseIP("10.65.0.1")
	if _, ok := tab.Get(a); ok || tab.Len() != 0 || tab.All() != nil {
		t.Fatal("a zero table is not empty")
	}
	tab.Delete(a) // deleting from an empty stripe is a no-op
	tab.Put(a, "a")
	tab.Put(b, "b")
	tab.Put(a, "a2")
	if v, ok := tab.Get(a); !ok || v != "a2" || tab.Len() != 2 {
		t.Fatalf("Get(a) = %q, %v; Len = %d", v, ok, tab.Len())
	}
	tab.Delete(a)
	if _, ok := tab.Get(a); ok || tab.Len() != 1 {
		t.Fatalf("a survived its delete; Len = %d", tab.Len())
	}
	if v, _ := tab.Get(b); v != "b" {
		t.Fatalf("Get(b) = %q after deleting its stripe-mate", v)
	}
}

// TestTablePhasesPartitionKeys: for any k, phases 0..k-1 list every key
// exactly once, by stripe — including a k that does not divide Stripes.
func TestTablePhasesPartitionKeys(t *testing.T) {
	var tab Table[int]
	keys := tableKeys(&tab)
	for _, k := range []int{1, 2, 3, 8, 64} {
		seen := map[IP]int{}
		for phase := 0; phase < k; phase++ {
			for _, ip := range tab.PhaseKeys(phase, k) {
				if Stripe(ip)%k != phase {
					t.Errorf("k=%d: %s (stripe %d) listed in phase %d", k, ip, Stripe(ip), phase)
				}
				seen[ip]++
			}
		}
		for _, ip := range keys {
			if seen[ip] != 1 {
				t.Errorf("k=%d: %s listed %d times", k, ip, seen[ip])
			}
		}
		if len(seen) != len(keys) {
			t.Errorf("k=%d: the phases list %d keys, the table holds %d", k, len(seen), len(keys))
		}
	}
}

// TestTableListsWithin: Keys and Values list exactly the keys inside the
// block, whether it spans many stripes (shorter than /16) or lies in one
// that another /16 shares.
func TestTableListsWithin(t *testing.T) {
	var tab Table[int]
	keys := tableKeys(&tab)
	for _, s := range []string{"0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/10", "10.1.0.0/16",
		"10.65.0.0/16", "10.1.0.0/24", "10.2.0.98/32", "10.200.0.0/16", "192.0.2.0/24"} {
		block := MustParsePrefix(s)
		var want []IP
		for _, ip := range keys {
			if block.Contains(ip) {
				want = append(want, ip)
			}
		}
		got := tab.Keys(block)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("Keys(%s) = %v, want %v", s, got, want)
		}
		vals := tab.Values(block)
		if len(vals) != len(want) {
			t.Errorf("Values(%s) lists %d values, want %d", s, len(vals), len(want))
		}
		for _, v := range vals {
			if !block.Contains(keys[v]) {
				t.Errorf("Values(%s) lists the value of %s", s, keys[v])
			}
		}
	}
	if n := len(tab.All()); n != len(keys) || tab.Len() != len(keys) {
		t.Errorf("All lists %d values and Len is %d, want %d", n, tab.Len(), len(keys))
	}
}

// mirror is a Table beside the plain map it must agree with.
type mirror struct {
	t   testing.TB
	tab Table[int]
	m   map[IP]int
}

func newMirror(t testing.TB) *mirror { return &mirror{t: t, m: map[IP]int{}} }

func (mr *mirror) put(ip IP, v int) { mr.tab.Put(ip, v); mr.m[ip] = v }

func (mr *mirror) del(ip IP) { mr.tab.Delete(ip); delete(mr.m, ip) }

func (mr *mirror) get(ip IP) {
	mr.t.Helper()
	v, ok := mr.tab.Get(ip)
	if w, wok := mr.m[ip]; v != w || ok != wok {
		mr.t.Fatalf("Get(%s) = %d, %v; the map holds %d, %v", ip, v, ok, w, wok)
	}
}

// list checks Len, and Keys and Values of block: the keys the map holds
// inside block, each listed once, with the values in the same order.
func (mr *mirror) list(block Prefix) {
	mr.t.Helper()
	if n := mr.tab.Len(); n != len(mr.m) {
		mr.t.Fatalf("Len = %d, the map holds %d", n, len(mr.m))
	}
	keys, vals := mr.tab.Keys(block), mr.tab.Values(block)
	if len(keys) != len(vals) {
		mr.t.Fatalf("%s: %d keys, %d values", block, len(keys), len(vals))
	}
	for i, ip := range keys {
		if v, ok := mr.m[ip]; !ok || v != vals[i] || !block.Contains(ip) {
			mr.t.Fatalf("%s lists %s = %d; the map holds %d, %v", block, ip, vals[i], v, ok)
		}
	}
	n := 0
	for ip := range mr.m {
		if block.Contains(ip) {
			n++
		}
	}
	if slices.Sort(keys); len(slices.Compact(keys)) != n {
		mr.t.Fatalf("%s lists %d distinct keys, the map holds %d", block, len(keys), n)
	}
}

// ascend checks Ascend from from: across blocks and stripes it yields
// exactly the map's keys from from on, ascending, each with its value;
// and a walk stopped after any key and resumed at the next address
// yields the same keys.
func (mr *mirror) ascend(from IP) {
	mr.t.Helper()
	var want []IP
	for ip := range mr.m {
		if ip >= from {
			want = append(want, ip)
		}
	}
	slices.Sort(want)
	var got []IP
	mr.tab.Ascend(from, func(ip IP, v int) bool {
		if w, ok := mr.m[ip]; !ok || v != w {
			mr.t.Fatalf("Ascend(%s) yields %s = %d; the map holds %d, %v", from, ip, v, w, ok)
		}
		got = append(got, ip)
		return true
	})
	if !slices.Equal(got, want) {
		mr.t.Fatalf("Ascend(%s) yields %d keys %v, the map's sorted keys from there are %d: %v", from, len(got), got, len(want), want)
	}
	var resumed []IP
	for at, more := from, true; more; {
		more = false
		mr.tab.Ascend(at, func(ip IP, _ int) bool {
			resumed = append(resumed, ip)
			at, more = ip+1, ip != ^IP(0)
			return false
		})
	}
	if !slices.Equal(resumed, want) {
		mr.t.Fatalf("Ascend(%s) one key at a time yields %v, want %v", from, resumed, want)
	}
}

// phases checks that PhaseKeys over phases 0..k-1 lists every key once,
// in its stripe's phase.
func (mr *mirror) phases(k int) {
	mr.t.Helper()
	n := 0
	for phase := 0; phase < k; phase++ {
		for _, ip := range mr.tab.PhaseKeys(phase, k) {
			if _, ok := mr.m[ip]; !ok || Stripe(ip)%k != phase {
				mr.t.Fatalf("k=%d: phase %d lists %s (held %v, stripe %d)", k, phase, ip, ok, Stripe(ip))
			}
			n++
		}
	}
	if n != len(mr.m) {
		mr.t.Fatalf("k=%d: the phases list %d keys, the map holds %d", k, n, len(mr.m))
	}
}

// TestTableMatchesAMap runs seeded random operation sequences against a
// Table and a plain map side by side, over key sets that are dense, that
// straddle page boundaries, that keep emptying one page and refilling it,
// and that are scattered over many /16s, some sharing a stripe.
func TestTableMatchesAMap(t *testing.T) {
	base := MustParseIP("100.64.0.0")
	sets := []struct {
		name string
		key  func(*rand.Rand) IP
	}{
		{"dense", func(r *rand.Rand) IP { return base + IP(r.Intn(300)) }},
		{"page boundaries", func(r *rand.Rand) IP { return base + IP(pageSlots*(1+r.Intn(3))+r.Intn(6)-3) }},
		{"one page", func(r *rand.Rand) IP { return base + pageSlots + IP(r.Intn(3)) }},
		// 96 /16s 11 apart: 64 stripes, so 32 of them hold two.
		{"sparse", func(r *rand.Rand) IP { return IP(11*r.Intn(96))<<16 | IP(r.Intn(1<<16)) }},
	}
	for _, set := range sets {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			mr := newMirror(t)
			var drawn []IP // half the operations reuse a key drawn before
			for step := 0; step < 4000; step++ {
				ip := set.key(rng)
				if len(drawn) > 0 && rng.Intn(2) == 0 {
					ip = drawn[rng.Intn(len(drawn))]
				} else {
					drawn = append(drawn, ip)
				}
				switch op := rng.Intn(10); {
				case op < 4:
					mr.put(ip, step)
				case op < 7:
					mr.del(ip)
				case op < 9:
					mr.get(ip)
				default:
					mr.list(NewPrefix(ip, []int{0, 8, 14, 16, 22, 26, 32}[rng.Intn(7)]))
					mr.phases(1 + rng.Intn(9))
					mr.ascend([]IP{0, ip, ip + 1, ip &^ 0xffff}[rng.Intn(4)])
				}
			}
			mr.list(Prefix{})
			mr.ascend(0)
		}
	}
}

// TestTableFreesAnEmptiedPage: a page goes when its last key does, and a
// key put on it again reads back alone.
func TestTableFreesAnEmptiedPage(t *testing.T) {
	var tab Table[int]
	base := MustParseIP("10.1.0.0") + 3*pageSlots
	for i := 0; i < pageSlots; i++ {
		tab.Put(base+IP(i), i)
	}
	s := &tab.stripes[Stripe(base)]
	if s.blocks[0].page(3) == nil {
		t.Fatal("no page holds the keys")
	}
	for i := 0; i < pageSlots; i++ {
		tab.Delete(base + IP(i))
	}
	if s.blocks[0].page(3) != nil || tab.Len() != 0 {
		t.Fatalf("the emptied page is still held; Len = %d", tab.Len())
	}
	tab.Put(base+5, 7)
	if v, ok := tab.Get(base + 5); !ok || v != 7 || tab.Len() != 1 || len(tab.Keys(NewPrefix(base, 16))) != 1 {
		t.Fatalf("after refilling the page: Get = %d, %v; Len = %d", v, ok, tab.Len())
	}
}

// TestTableBytesPerKey: dense keys cost their value's size and little
// more. 50 000 consecutive addresses holding a 40-byte value each — the
// size of a permit list — take at most 48 bytes of live heap per key.
func TestTableBytesPerKey(t *testing.T) {
	const n, budget = 50000, 48
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var tab Table[[5]uint64]
	before := heap()
	base := MustParseIP("100.64.0.0")
	for i := 0; i < n; i++ {
		tab.Put(base+IP(i), [5]uint64{uint64(i)})
	}
	per := float64(heap()-before) / n
	runtime.KeepAlive(&tab)
	t.Logf("%.1f live bytes per key", per)
	if per > budget {
		t.Errorf("%.1f live bytes per key, budget %d", per, budget)
	}
}

// TestTableStripeIsolation: isolation is a lock-footprint property, so it
// is checked as one. With one /16's stripe write-locked, each operation
// completes on another /16 and waits for the release on the locked one.
func TestTableStripeIsolation(t *testing.T) {
	var tab Table[int]
	locked, free := MustParseIP("10.1.0.1"), MustParseIP("10.2.0.1")
	tab.Put(locked, 1)
	tab.Put(free, 2)
	rows := []struct {
		name string
		run  func(ip IP)
	}{
		{"get", func(ip IP) { tab.Get(ip) }},
		{"put", func(ip IP) { tab.Put(ip+1, 3) }},
		{"delete", func(ip IP) { tab.Delete(ip + 1) }},
		{"prefix listing", func(ip IP) { tab.Keys(NewPrefix(ip, 16)) }},
		{"phase listing", func(ip IP) { tab.PhaseKeys(Stripe(ip)%8, 8) }},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			s := &tab.stripes[Stripe(locked)]
			s.mu.Lock()
			release := sync.OnceFunc(s.mu.Unlock)
			defer release()
			blocked := async(func() { r.run(locked) })
			select {
			case <-blocked:
				t.Fatalf("%s on the locked /16 finished while its stripe was locked", r.name)
			case <-time.After(50 * time.Millisecond):
			}
			within(t, async(func() { r.run(free) }), r.name+" on another /16 beside the locked stripe")
			release()
			within(t, blocked, r.name+" on the locked /16 after release")
		})
	}
}

// TestTableConcurrentUse is for the race detector: writers put and delete
// while readers get and list, across stripes and within one.
func TestTableConcurrentUse(t *testing.T) {
	var tab Table[int]
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ip := IP(0x0a000000 + (i%8)<<16 + w<<8 + i)
				switch i % 6 {
				case 0, 1:
					tab.Put(ip, i)
				case 2:
					tab.Delete(ip - 2)
				case 3:
					tab.Get(ip - 3)
				case 4:
					tab.Keys(NewPrefix(ip, 16))
				default:
					tab.PhaseKeys(i%3, 3)
					tab.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(tab.All()); got != tab.Len() {
		t.Fatalf("All lists %d values, Len is %d", got, tab.Len())
	}
}

func async(fn func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	return done
}

func within(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not finish within 10s", what)
	}
}
