// Package addr provides IPv4 address and prefix arithmetic, CIDR block
// allocation, and the subnet planning machinery that both the baseline
// tenant-network layer (VPC CIDRs, subnets) and the declarative provider
// layer (flat EIP pools) are built on.
//
// Addresses are plain uint32s in host byte order; prefixes are
// (address, length) pairs with the host bits forced to zero. Keeping the
// representation primitive makes the longest-prefix-match trie in package
// routing and the permit-list engine cheap and allocation-free.
package addr

import (
	"fmt"
	"strconv"
	"strings"
)

// IP is an IPv4 address in host byte order.
type IP uint32

// ParseIP parses dotted-quad notation.
func ParseIP(s string) (IP, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("addr: invalid IPv4 %q", s)
	}
	var ip uint32
	for _, p := range parts {
		v, ok := parseDecimal(p, 255)
		if !ok {
			return 0, fmt.Errorf("addr: invalid IPv4 octet %q in %q", p, s)
		}
		ip = ip<<8 | uint32(v)
	}
	return IP(ip), nil
}

// parseDecimal parses an unsigned decimal with no sign characters and no
// leading zeros (strconv.Atoi accepts "+4" and "-0", which would make
// String round-trips lossy).
func parseDecimal(p string, max int) (int, bool) {
	if len(p) == 0 || (len(p) > 1 && p[0] == '0') {
		return 0, false
	}
	v := 0
	for i := 0; i < len(p); i++ {
		c := p[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
		if v > max {
			return 0, false
		}
	}
	return v, true
}

// MustParseIP is ParseIP for tests and static tables; it panics on error.
func MustParseIP(s string) IP {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// String renders dotted-quad notation.
func (ip IP) String() string {
	// Hand-rolled dotted quad: this sits on the decision-tracing paths
	// (cause chains name addresses; every event read back renders two),
	// where fmt's reflection cost is measurable in experiment E12.
	var b [15]byte
	n := 0
	for i := 3; i >= 0; i-- {
		n += copyDecimal(b[n:], byte(ip>>(8*i)))
		if i > 0 {
			b[n] = '.'
			n++
		}
	}
	return string(b[:n])
}

// copyDecimal writes v's decimal digits into b, returning the count.
func copyDecimal(b []byte, v byte) int {
	switch {
	case v >= 100:
		b[0] = '0' + v/100
		b[1] = '0' + (v/10)%10
		b[2] = '0' + v%10
		return 3
	case v >= 10:
		b[0] = '0' + v/10
		b[1] = '0' + v%10
		return 2
	default:
		b[0] = '0' + v
		return 1
	}
}

// Prefix is an IPv4 CIDR prefix. Host bits below Len are always zero;
// construct values with NewPrefix or ParsePrefix to maintain that.
type Prefix struct {
	Addr IP
	Len  int // 0..32
}

// NewPrefix masks addr down to its first length bits.
func NewPrefix(addr IP, length int) Prefix {
	if length < 0 {
		length = 0
	}
	if length > 32 {
		length = 32
	}
	return Prefix{Addr: addr & mask(length), Len: length}
}

func mask(length int) IP {
	if length <= 0 {
		return 0
	}
	return IP(^uint32(0) << (32 - uint(length)))
}

// ParsePrefix parses "a.b.c.d/len" CIDR notation.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("addr: missing / in prefix %q", s)
	}
	ip, err := ParseIP(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	length, ok := parseDecimal(s[slash+1:], 32)
	if !ok {
		return Prefix{}, fmt.Errorf("addr: invalid prefix length in %q", s)
	}
	p := NewPrefix(ip, length)
	if p.Addr != ip {
		return Prefix{}, fmt.Errorf("addr: %q has host bits set", s)
	}
	return p, nil
}

// MustParsePrefix is ParsePrefix for tests and static tables.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String renders CIDR notation.
func (p Prefix) String() string {
	return p.Addr.String() + "/" + strconv.Itoa(p.Len)
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip IP) bool {
	return ip&mask(p.Len) == p.Addr
}

// ContainsPrefix reports whether other is entirely inside p.
func (p Prefix) ContainsPrefix(other Prefix) bool {
	return other.Len >= p.Len && p.Contains(other.Addr)
}

// Overlaps reports whether the two prefixes share any address.
func (p Prefix) Overlaps(other Prefix) bool {
	return p.ContainsPrefix(other) || other.ContainsPrefix(p)
}

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() uint64 {
	return uint64(1) << (32 - uint(p.Len))
}

// First and Last return the lowest and highest address in the prefix.
func (p Prefix) First() IP { return p.Addr }
func (p Prefix) Last() IP  { return p.Addr | ^mask(p.Len) }

// Halves splits the prefix into its two children. It panics on a /32,
// which has no children; callers split only after checking Len < 32.
func (p Prefix) Halves() (lo, hi Prefix) {
	if p.Len >= 32 {
		panic("addr: cannot split a /32")
	}
	lo = Prefix{Addr: p.Addr, Len: p.Len + 1}
	hi = Prefix{Addr: p.Addr | IP(1)<<(31-uint(p.Len)), Len: p.Len + 1}
	return lo, hi
}

// Sibling returns the buddy prefix that, merged with p, forms the parent.
// It panics on a /0.
func (p Prefix) Sibling() Prefix {
	if p.Len == 0 {
		panic("addr: /0 has no sibling")
	}
	return Prefix{Addr: p.Addr ^ IP(1)<<(32-uint(p.Len)), Len: p.Len}
}

// Parent returns the enclosing prefix one bit shorter. It panics on a /0.
func (p Prefix) Parent() Prefix {
	if p.Len == 0 {
		panic("addr: /0 has no parent")
	}
	return NewPrefix(p.Addr, p.Len-1)
}
