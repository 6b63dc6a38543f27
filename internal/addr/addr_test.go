package addr

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseIPRoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0", "10.1.2.3", "172.16.0.1", "255.255.255.255", "192.168.100.200"}
	for _, s := range cases {
		ip, err := ParseIP(s)
		if err != nil {
			t.Fatalf("ParseIP(%q): %v", s, err)
		}
		if got := ip.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseIPErrors(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "-1.0.0.0", "a.b.c.d", "01.2.3.4", "1..2.3"} {
		if _, err := ParseIP(s); err == nil {
			t.Errorf("ParseIP(%q) succeeded, want error", s)
		}
	}
}

// TestParseAllocatesNothing: a valid address or prefix parses without
// allocating — the /v1/batch decoder parses every permit entry through
// ParsePrefix — and AppendTo renders into the caller's buffer.
func TestParseAllocatesNothing(t *testing.T) {
	for _, s := range []string{"0.0.0.0", "10.1.2.3", "255.255.255.255"} {
		if n := testing.AllocsPerRun(100, func() { _, _ = ParseIP(s) }); n != 0 {
			t.Errorf("ParseIP(%q) allocates %.0f times", s, n)
		}
	}
	for _, s := range []string{"0.0.0.0/0", "10.1.0.0/16", "255.255.255.255/32"} {
		if n := testing.AllocsPerRun(100, func() { _, _ = ParsePrefix(s) }); n != 0 {
			t.Errorf("ParsePrefix(%q) allocates %.0f times", s, n)
		}
	}
	ip, buf := MustParseIP("10.1.2.3"), make([]byte, 0, 32)
	if n := testing.AllocsPerRun(100, func() { buf = ip.AppendTo(buf[:0]) }); n != 0 {
		t.Errorf("AppendTo allocates %.0f times", n)
	}
	if got := string(ip.AppendTo([]byte("ip="))); got != "ip=10.1.2.3" {
		t.Errorf("AppendTo = %q", got)
	}
}

// TestParseErrorTexts pins each parse error's text: the count of dots is
// checked before any octet, and the first bad octet is named.
func TestParseErrorTexts(t *testing.T) {
	for s, want := range map[string]string{
		"":           `addr: invalid IPv4 ""`,
		"1.2.3":      `addr: invalid IPv4 "1.2.3"`,
		"x.1.2.3.4":  `addr: invalid IPv4 "x.1.2.3.4"`,
		"1.x.3.y":    `addr: invalid IPv4 octet "x" in "1.x.3.y"`,
		"1.2.3.":     `addr: invalid IPv4 octet "" in "1.2.3."`,
		"1.2.3.256":  `addr: invalid IPv4 octet "256" in "1.2.3.256"`,
		"1.2.3.4/8x": `addr: invalid prefix length in "1.2.3.4/8x"`,
		"1.2.3.4/8":  `addr: "1.2.3.4/8" has host bits set`,
		"1.2.3.4":    `addr: missing / in prefix "1.2.3.4"`,
		"1.2.3/8":    `addr: invalid IPv4 "1.2.3"`,
	} {
		var err error
		if strings.Contains(s, "/") || want[:14] == "addr: missing " {
			_, err = ParsePrefix(s)
		} else {
			_, err = ParseIP(s)
		}
		if err == nil || err.Error() != want {
			t.Errorf("parse %q: error %v, want %s", s, err, want)
		}
	}
}

func TestParsePrefix(t *testing.T) {
	p, err := ParsePrefix("10.0.0.0/8")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "10.0.0.0/8" {
		t.Fatalf("String = %q", p.String())
	}
	if p.Size() != 1<<24 {
		t.Fatalf("Size = %d", p.Size())
	}
}

func TestParsePrefixErrors(t *testing.T) {
	for _, s := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "10.0.0.1/8", "x/8", "10.0.0.0/x"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", s)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("10.1.0.0/16")
	if !p.Contains(MustParseIP("10.1.255.255")) {
		t.Error("10.1.0.0/16 should contain 10.1.255.255")
	}
	if p.Contains(MustParseIP("10.2.0.0")) {
		t.Error("10.1.0.0/16 should not contain 10.2.0.0")
	}
	all := MustParsePrefix("0.0.0.0/0")
	if !all.Contains(MustParseIP("255.255.255.255")) {
		t.Error("/0 should contain everything")
	}
}

func TestPrefixOverlaps(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/8")
	b := MustParsePrefix("10.5.0.0/16")
	c := MustParsePrefix("11.0.0.0/8")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested prefixes must overlap both ways")
	}
	if a.Overlaps(c) {
		t.Error("disjoint prefixes must not overlap")
	}
}

func TestPrefixFamily(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/9")
	if got := p.Sibling(); got != MustParsePrefix("10.128.0.0/9") {
		t.Errorf("Sibling = %s", got)
	}
	if got := p.Parent(); got != MustParsePrefix("10.0.0.0/8") {
		t.Errorf("Parent = %s", got)
	}
	lo, hi := p.Halves()
	if lo != MustParsePrefix("10.0.0.0/10") || hi != MustParsePrefix("10.64.0.0/10") {
		t.Errorf("Halves = %s, %s", lo, hi)
	}
	if p.First() != MustParseIP("10.0.0.0") || p.Last() != MustParseIP("10.127.255.255") {
		t.Errorf("First,Last = %s,%s", p.First(), p.Last())
	}
}

func TestPrefixPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Halves on /32", func() { MustParsePrefix("1.2.3.4/32").Halves() })
	mustPanic("Sibling on /0", func() { MustParsePrefix("0.0.0.0/0").Sibling() })
	mustPanic("Parent on /0", func() { MustParsePrefix("0.0.0.0/0").Parent() })
}

// Property: halves partition the parent exactly.
func TestQuickHalvesPartition(t *testing.T) {
	f := func(a uint32, l uint8) bool {
		length := int(l % 32) // 0..31 so Halves is legal
		p := NewPrefix(IP(a), length)
		lo, hi := p.Halves()
		if lo.Size()+hi.Size() != p.Size() {
			return false
		}
		if lo.Overlaps(hi) {
			return false
		}
		return p.ContainsPrefix(lo) && p.ContainsPrefix(hi) &&
			lo.First() == p.First() && hi.Last() == p.Last()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: sibling is an involution and merges into the parent.
func TestQuickSibling(t *testing.T) {
	f := func(a uint32, l uint8) bool {
		length := 1 + int(l%32) // 1..32 so Sibling is legal
		p := NewPrefix(IP(a), length)
		s := p.Sibling()
		return s.Sibling() == p && s.Parent() == p.Parent() && !s.Overlaps(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockPoolAllocateRelease(t *testing.T) {
	pool := NewBlockPool(MustParsePrefix("10.0.0.0/8"))
	a, err := pool.Allocate(16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Allocate(16)
	if err != nil {
		t.Fatal(err)
	}
	if a.Overlaps(b) {
		t.Fatalf("allocated blocks overlap: %s, %s", a, b)
	}
	if err := pool.Release(a); err != nil {
		t.Fatal(err)
	}
	if err := pool.Release(a); err == nil {
		t.Fatal("double release succeeded")
	}
	if err := pool.Release(b); err != nil {
		t.Fatal(err)
	}
	// After releasing everything the pool must coalesce back to the root.
	if pool.FreeSpace() != MustParsePrefix("10.0.0.0/8").Size() {
		t.Fatalf("FreeSpace = %d after full release", pool.FreeSpace())
	}
	got, err := pool.Allocate(8)
	if err != nil {
		t.Fatalf("root-size allocation after coalesce: %v", err)
	}
	if got != MustParsePrefix("10.0.0.0/8") {
		t.Fatalf("coalesced allocation = %s", got)
	}
}

func TestBlockPoolExhaustion(t *testing.T) {
	pool := NewBlockPool(MustParsePrefix("192.168.0.0/30"))
	for i := 0; i < 4; i++ {
		if _, err := pool.Allocate(32); err != nil {
			t.Fatalf("allocation %d: %v", i, err)
		}
	}
	if _, err := pool.Allocate(32); err == nil {
		t.Fatal("allocation from empty pool succeeded")
	}
}

func TestBlockPoolBadLength(t *testing.T) {
	pool := NewBlockPool(MustParsePrefix("10.0.0.0/8"))
	if _, err := pool.Allocate(4); err == nil {
		t.Fatal("allocating block larger than root succeeded")
	}
	if _, err := pool.Allocate(33); err == nil {
		t.Fatal("allocating /33 succeeded")
	}
}

func TestAllocateFor(t *testing.T) {
	pool := NewBlockPool(MustParsePrefix("10.0.0.0/8"))
	blk, err := pool.AllocateFor(1000)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Size() < 1000 {
		t.Fatalf("block %s too small for 1000 hosts", blk)
	}
	if blk.Len != 22 { // 1024 addresses
		t.Fatalf("block length = %d, want 22", blk.Len)
	}
	if _, err := pool.AllocateFor(0); err == nil {
		t.Fatal("AllocateFor(0) succeeded")
	}
}

// Property: any sequence of allocations yields pairwise disjoint blocks
// all inside the root.
func TestQuickBlockPoolDisjoint(t *testing.T) {
	f := func(sizes []uint8) bool {
		pool := NewBlockPool(MustParsePrefix("10.0.0.0/8"))
		var got []Prefix
		for _, s := range sizes {
			length := 9 + int(s%24) // 9..32
			blk, err := pool.Allocate(length)
			if err != nil {
				continue // exhaustion is fine
			}
			got = append(got, blk)
		}
		for i := range got {
			if !MustParsePrefix("10.0.0.0/8").ContainsPrefix(got[i]) {
				return false
			}
			for j := i + 1; j < len(got); j++ {
				if got[i].Overlaps(got[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHostPool(t *testing.T) {
	hp := NewHostPool(MustParsePrefix("10.0.0.0/29"), 2) // 8 addrs, 2 reserved
	var got []IP
	for i := 0; i < 6; i++ {
		ip, err := hp.Allocate()
		if err != nil {
			t.Fatalf("allocation %d: %v", i, err)
		}
		got = append(got, ip)
	}
	if got[0] != MustParseIP("10.0.0.2") {
		t.Fatalf("first address = %s, want 10.0.0.2 (reserved skipped)", got[0])
	}
	if _, err := hp.Allocate(); err == nil {
		t.Fatal("allocation beyond pool size succeeded")
	}
	if err := hp.Release(got[3]); err != nil {
		t.Fatal(err)
	}
	ip, err := hp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if ip != got[3] {
		t.Fatalf("reused address = %s, want %s", ip, got[3])
	}
	if err := hp.Release(MustParseIP("1.1.1.1")); err == nil {
		t.Fatal("release of foreign address succeeded")
	}
	if hp.InUse() != 6 {
		t.Fatalf("InUse = %d, want 6", hp.InUse())
	}
}

// TestHostPoolBitmapGrowsOnlyToWhatIsHandedOut: the in-use bitmap of a
// block far larger than a /16 covers only the addresses handed out, and
// a refused release — of an address outside the prefix, or of one never
// handed out, inside the bitmap or past it — leaves it as it was.
func TestHostPoolBitmapGrowsOnlyToWhatIsHandedOut(t *testing.T) {
	hp := NewHostPool(MustParsePrefix("104.0.0.0/10"), 0)
	for i := 0; i < 3; i++ {
		if _, err := hp.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(hp.inUse); n != 1 {
		t.Fatalf("3 addresses of a /10 take %d bitmap words", n)
	}
	for _, s := range []string{"10.0.0.1", "104.64.0.0", "104.0.0.50", "104.0.0.3", "104.12.0.1"} {
		if err := hp.Release(MustParseIP(s)); err == nil {
			t.Errorf("release of %s, never handed out, succeeded", s)
		}
	}
	if n := len(hp.inUse); n != 1 || hp.InUse() != 3 {
		t.Fatalf("after the refused releases: %d bitmap words, InUse %d", n, hp.InUse())
	}
}

// TestHostPoolShorterThanA16 allocates across a /16 boundary of a /15
// pool, releases every third address, and gets them back first, in
// release order.
func TestHostPoolShorterThanA16(t *testing.T) {
	p := MustParsePrefix("10.2.0.0/15")
	hp := NewHostPool(p, 0)
	const n = 1<<16 + 100
	seen := make(map[IP]bool, n)
	var freed []IP
	for i := 0; i < n; i++ {
		a, err := hp.Allocate()
		if err != nil || !p.Contains(a) || seen[a] {
			t.Fatalf("allocation %d = %s, %v (seen %v)", i, a, err, seen[a])
		}
		seen[a] = true
	}
	for a := p.First() + 1<<16 - 150; a < p.First()+n; a += 3 {
		if err := hp.Release(a); err != nil {
			t.Fatal(err)
		}
		freed = append(freed, a)
	}
	if got := hp.InUse(); got != n-len(freed) {
		t.Fatalf("InUse = %d, want %d", got, n-len(freed))
	}
	for _, want := range freed {
		if got, err := hp.Allocate(); err != nil || got != want {
			t.Fatalf("reallocation = %s, %v; want %s", got, err, want)
		}
	}
	if got := hp.InUse(); got != n {
		t.Fatalf("InUse = %d, want %d", got, n)
	}
}

func TestPlanner(t *testing.T) {
	p := NewPlanner(RFC1918())
	seen := map[string]Prefix{}
	for _, net := range []struct {
		name  string
		hosts int
	}{
		{"vpc-a", 1000}, {"vpc-b", 50000}, {"vpc-c", 10}, {"onprem", 65536},
	} {
		blk, err := p.Plan(net.name, net.hosts)
		if err != nil {
			t.Fatalf("Plan(%s): %v", net.name, err)
		}
		if blk.Size() < uint64(net.hosts) {
			t.Errorf("%s: block %s too small for %d hosts", net.name, blk, net.hosts)
		}
		seen[net.name] = blk
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if _, err := p.Plan("vpc-a", 10); err == nil {
		t.Fatal("replanning an existing network succeeded")
	}
	if got, ok := p.Lookup("vpc-b"); !ok || got != seen["vpc-b"] {
		t.Fatalf("Lookup(vpc-b) = %v,%v", got, ok)
	}
	if len(p.Networks()) != 4 {
		t.Fatalf("Networks = %v", p.Networks())
	}
	if p.Decisions == 0 {
		t.Fatal("planner recorded no decisions")
	}
}

func TestPlannerExhaustion(t *testing.T) {
	p := NewPlanner([]Prefix{MustParsePrefix("192.168.0.0/24")})
	if _, err := p.Plan("big", 1<<20); err == nil {
		t.Fatal("oversized plan succeeded")
	}
}

func TestPlannerManyVPCsNoOverlap(t *testing.T) {
	// The paper's scaling pain point: hundreds of VPCs. The planner must
	// keep them all disjoint.
	p := NewPlanner(RFC1918())
	for i := 0; i < 300; i++ {
		name := "vpc-" + strings.Repeat("x", i%3) + string(rune('a'+i%26)) + itoa(i)
		if _, err := p.Plan(name, 200); err != nil {
			t.Fatalf("Plan #%d: %v", i, err)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func itoa(i int) string {
	return string(rune('0'+i/100%10)) + string(rune('0'+i/10%10)) + string(rune('0'+i%10))
}
