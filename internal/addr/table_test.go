package addr

import (
	"math/rand"
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
