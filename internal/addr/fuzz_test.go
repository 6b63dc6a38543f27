package addr

import (
	"strings"
	"testing"
)

// FuzzTableOps decodes bytes into a sequence of Table operations, three
// bytes each: a Put, Delete, Get or Keys listing, on one of the first
// 16 384 addresses (256 pages) of one of four /16s, two of which share a
// stripe; a listing's prefix length comes from the last byte, and a
// listing also walks the table in order from its address. Each result
// must match a plain map's: an ordered walk, across blocks and stripes,
// yields exactly the map's sorted keys.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 4, 65, 3, 0, 16, 1, 0, 1, 3, 0, 0})
	f.Add([]byte{0, 1, 63, 0, 1, 64, 1, 1, 63, 2, 1, 63, 3, 1, 26, 1, 1, 64, 3, 1, 32})
	f.Add([]byte{0, 2, 9, 0, 3, 9, 0, 255, 255, 3, 2, 8, 1, 2, 9, 2, 3, 9, 3, 0, 0})
	blocks := [4]IP{0x0a000000, 0x0a010000, 0x0a400000, 0xc0a80000}
	lengths := [8]int{0, 8, 9, 15, 16, 20, 26, 32}
	f.Fuzz(func(t *testing.T, ops []byte) {
		mr := newMirror(t)
		for i := 0; i+2 < len(ops); i += 3 {
			b, lo := ops[i+1], ops[i+2]
			ip := blocks[b&3] | IP(b>>2)<<8 | IP(lo)
			switch ops[i] & 3 {
			case 0:
				mr.put(ip, i)
			case 1:
				mr.del(ip)
			case 2:
				mr.get(ip)
			default:
				mr.list(NewPrefix(ip, lengths[lo&7]))
				mr.ascend(ip)
			}
		}
		mr.list(Prefix{})
		mr.ascend(0)
		mr.phases(3)
	})
}

// FuzzParseIP checks the core parser invariant: anything ParseIP accepts
// must round-trip through String to the identical input. This is what
// caught strconv.Atoi's sign tolerance ("+4", "-0" octets parsed fine
// but rendered differently).
func FuzzParseIP(f *testing.F) {
	for _, seed := range []string{
		"0.0.0.0", "1.2.3.4", "255.255.255.255", "10.0.0.1",
		"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "01.2.3.4",
		"+4.0.0.0", "-0.0.0.1", "1.2.3.+4", "1.2.3.-0",
		"1..3.4", " 1.2.3.4", "1.2.3.4 ", "0x1.2.3.4",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ip, err := ParseIP(s)
		if err != nil {
			return
		}
		if got := ip.String(); got != s {
			t.Fatalf("ParseIP(%q) accepted, but String() = %q", s, got)
		}
	})
}

// FuzzParsePrefix checks the CIDR parser: accepted inputs round-trip
// exactly, carry legal lengths, have no host bits, and contain their own
// base address.
func FuzzParsePrefix(f *testing.F) {
	for _, seed := range []string{
		"0.0.0.0/0", "10.0.0.0/8", "1.2.3.4/32", "255.255.255.255/32",
		"", "/", "1.2.3.4", "1.2.3.4/", "1.2.3.4/33", "1.2.3.4/-1",
		"0.0.0.0/+8", "0.0.0.0/08", "1.2.3.4/31", "10.0.0.1/8",
		"10.0.0.0/8/8", "+4.0.0.0/8",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePrefix(s)
		if err != nil {
			return
		}
		if p.Len < 0 || p.Len > 32 {
			t.Fatalf("ParsePrefix(%q) produced illegal length %d", s, p.Len)
		}
		if p.Addr&^mask(p.Len) != 0 {
			t.Fatalf("ParsePrefix(%q) left host bits set: %s", s, p)
		}
		if !p.Contains(p.Addr) {
			t.Fatalf("ParsePrefix(%q): prefix does not contain its own base", s)
		}
		if got := p.String(); got != s {
			t.Fatalf("ParsePrefix(%q) accepted, but String() = %q", s, got)
		}
		// Splitting and rejoining must preserve the prefix.
		if p.Len < 32 {
			lo, hi := p.Halves()
			if lo.Parent() != p || hi.Parent() != p || lo.Sibling() != hi {
				t.Fatalf("ParsePrefix(%q): halves/parent/sibling disagree", s)
			}
		}
		if strings.Count(s, "/") != 1 {
			t.Fatalf("ParsePrefix(%q) accepted input without exactly one slash", s)
		}
	})
}
