// The snapshot codec. The snapshot holds the declared world in what it
// costs to say, written from what the state already holds once: most
// endpoints share one of a few placements (tenant, VM, provider, region)
// and most permit lists are one of a few distinct lists, so each
// placement, each string and each distinct list is written once and
// referred to by index after that. The layout, every integer a varint and
// every float a uvarint of its byte-reversed bits (gob's form: 0 is one
// byte):
//
//	"DNETSNP3"
//	seq
//	meta                      string-keyed section
//	endpoints                 address-keyed section; each record a
//	                          placement reference, the egress cap and a
//	                          permit-list reference
//	services                  address-keyed section; each record the
//	                          tenant and provider string references, the
//	                          binds and a permit-list reference
//	quotas, potato, groups, names, eip_pools, sip_pools
//	CRC32 (IEEE, little-endian) of every byte before it
//
// An address-keyed section is a count, then each entry in ascending
// address order, its address written as the gap from the one before. A
// string-keyed section is a count, then each entry in key order, its key
// a length-prefixed string. A string or placement reference is an index
// into a table both ends build as they go: the first reference to a value
// is the table's length, followed by the value itself (a placement's four
// string references). A permit-list reference is 0 for no list, else one
// more than the list's index in its table, the first reference followed
// by the list: its length, then each entry's address and length. A slice
// that may be nil is its length plus one, 0 meaning nil.
//
// The encoder keys its placement and list tables by the state's own
// pointers, so it hashes no string or list per record; the decoder holds
// each distinct placement and list once in the state's tables (interns)
// and counts each later reference to one without a lookup.
//
// Neither direction holds a second copy of the world: the encoder appends
// one entry at a time into a buffer it hands to the file every spillAt
// bytes, and the decoder reads through a bufio.Reader. The journal's
// frames (journal.go) are written and read with the same encoder and
// decoder. The decoder also reads DNETSNP2, the format before — each
// endpoint's four string references, the lists in a permits section of
// their own after the services — only for Open to upgrade the store it
// finds one in; Open refuses every other format (see checkFormat).
package intent

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"

	"declnet/internal/addr"
)

// snapshotMagic opens every snapshot file: format name plus version.
// snapshotV2Magic is the format before, which Open reads only to upgrade.
var (
	snapshotMagic   = []byte("DNETSNP3")
	snapshotV2Magic = []byte("DNETSNP2")
)

// spillAt is how many pending bytes the encoder hands to its writer at a
// time: the file's write size.
const spillAt = 64 << 10

// encoder appends the codec's primitives to b. A frame encoder uses b
// alone; a snapshot's also the rest.
type encoder struct {
	w      io.Writer
	b      []byte                     // bytes not yet handed to w
	sum    uint32                     // CRC32 of the bytes handed to w
	strs   map[string]uint64          // the string table
	places map[*Placement]uint64      // the placement table
	sets   map[*addr.PrefixSet]uint64 // the permit-list table
	err    error                      // the first write error or unencodable entry
}

// encodeSnapshot streams s to w and returns the first write error, or the
// first entry Apply could not have stored (a nil one).
func (s *State) encodeSnapshot(w io.Writer) error {
	e := &encoder{w: w, b: make([]byte, 0, spillAt+4<<10), strs: map[string]uint64{},
		places: map[*Placement]uint64{}, sets: map[*addr.PrefixSet]uint64{}}
	e.b = append(e.b, snapshotMagic...)
	e.uvarint(s.Seq)
	stringSection(e, s.Meta, e.text)
	addrSection(e, s.Endpoints, e.endpoint)
	addrSection(e, s.Services, e.service)
	stringSection(e, s.Quotas, e.float)
	stringSection(e, s.Potato, e.text)
	stringSection(e, s.Groups, e.addrs)
	stringSection(e, s.Names, e.addr)
	stringSection(e, s.EIPPools, func(ps *PoolState) { some(e, ps, e.pool) })
	stringSection(e, s.SIPPools, func(ps *PoolState) { some(e, ps, e.pool) })
	e.spill(0)
	e.b = binary.LittleEndian.AppendUint32(e.b, e.sum)
	e.spill(0)
	return e.err
}

// spill hands the pending bytes to w once there are at least n of them.
func (e *encoder) spill(n int) {
	if len(e.b) < n {
		return
	}
	e.sum = crc32.Update(e.sum, crc32.IEEETable, e.b)
	if _, err := e.w.Write(e.b); err != nil && e.err == nil {
		e.err = err
	}
	e.b = e.b[:0]
}

// addrSection writes t's address-keyed section, walking it in address
// order: no key is collected or sorted.
func addrSection[V any](e *encoder, t *addr.Table[*V], value func(*V)) {
	e.uvarint(uint64(t.Len()))
	var prev addr.IP
	t.Ascend(0, func(ip addr.IP, v *V) bool {
		e.uvarint(uint64(ip - prev))
		prev = ip
		some(e, v, value)
		e.spill(spillAt)
		return true
	})
}

// some writes *v, or fails the encode: Apply never stores a nil entry.
func some[V any](e *encoder, v *V, value func(*V)) {
	if v != nil {
		value(v)
	} else if e.err == nil {
		e.err = fmt.Errorf("snapshot: nil %T", v)
	}
}

// stringSection is addrSection for the string-keyed sections, which are
// a handful of entries per tenant.
func stringSection[V any](e *encoder, m map[string]V, value func(V)) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.uvarint(uint64(len(m)))
	for _, k := range keys {
		e.text(k)
		value(m[k])
		e.spill(spillAt)
	}
}

func (e *encoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) addr(ip addr.IP)  { e.uvarint(uint64(ip)) }

func (e *encoder) text(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// float writes f as gob does, so 0 takes one byte and a round number a few.
func (e *encoder) float(f float64) { e.uvarint(bits.ReverseBytes64(math.Float64bits(f))) }

// index writes k's index in table, plus base, and reports whether k was
// in it; a new k joins the table, and the caller writes its value next.
func index[K comparable](e *encoder, table map[K]uint64, k K, base uint64) (seen bool) {
	i, seen := table[k]
	if !seen {
		i = uint64(len(table))
		table[k] = i
	}
	e.uvarint(base + i)
	return seen
}

// ref writes s as a string-table reference.
func (e *encoder) ref(s string) {
	if !index(e, e.strs, s, 0) {
		e.text(s)
	}
}

// nilable writes a slice's or map's length plus one, or 0 for nil.
func (e *encoder) nilable(n int, isNil bool) {
	if isNil {
		e.uvarint(0)
	} else {
		e.uvarint(uint64(n) + 1)
	}
}

func (e *encoder) addrs(ips []addr.IP) {
	e.nilable(len(ips), ips == nil)
	for _, ip := range ips {
		e.addr(ip)
	}
}

func (e *encoder) endpoint(ep *Endpoint) {
	some(e, ep.Placement, e.placement)
	e.float(ep.EgressCap)
	e.permits(ep.Permits)
}

// placement writes a placement-table reference.
func (e *encoder) placement(p *Placement) {
	if !index(e, e.places, p, 0) {
		e.ref(p.Tenant)
		e.ref(p.VM)
		e.ref(p.Provider)
		e.ref(p.Region)
	}
}

func (e *encoder) service(svc *Service) {
	e.ref(svc.Tenant)
	e.ref(svc.Provider)
	e.uvarint(uint64(len(svc.Binds)))
	for _, b := range svc.Binds {
		e.addr(b.EIP)
		e.b = binary.AppendVarint(e.b, int64(b.Weight))
	}
	e.permits(svc.Permits)
}

// permits writes a permit-list reference: 0 for no list.
func (e *encoder) permits(set *addr.PrefixSet) {
	if set == nil {
		e.uvarint(0)
	} else if !index(e, e.sets, set, 1) {
		e.b = appendPrefixes(e.b, set.Entries())
	}
}

func appendPrefixes(b []byte, ps []addr.Prefix) []byte {
	b = binary.AppendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		b = binary.AppendVarint(binary.AppendUvarint(b, uint64(p.Addr)), int64(p.Len))
	}
	return b
}

func (e *encoder) pool(ps *PoolState) {
	e.addr(ps.Next)
	e.addrs(ps.Released)
}

// decoder reads the codec's primitives from r: a snapshot file, or one
// journal frame's payload.
type decoder struct {
	r      *bufio.Reader
	lim    *io.LimitedReader // the payload, beneath r
	buf    []byte            // the string being read
	strs   []string
	places []*heldPlace      // the placement table, held in the state's
	sets   []*heldSet        // the permit-list table, held in the state's
	seen   map[string]string // the strings read so far, when the caller keeps one copy of each
	held   *interns          // the snapshot's state's table
	err    error             // the first thing wrong; every read after it returns zero
}

// decodeSnapshot reads a binary snapshot of size bytes, DNETSNP3 or the
// DNETSNP2 Open upgrades. Any input is safe: a count larger than the bytes
// left to hold it, an index past its table, an address past 32 bits, a
// prefix length past 32 or a checksum that does not match is an error,
// and nothing is allocated that the input's size does not bound.
func decodeSnapshot(r io.Reader, size int64) (*State, error) {
	sum := crc32.NewIEEE()
	d := &decoder{lim: &io.LimitedReader{R: r, N: max(size-4, 0)}}
	d.r = bufio.NewReaderSize(io.TeeReader(d.lim, sum), 64<<10)
	magic := d.read(len(snapshotMagic))
	v2 := bytes.Equal(magic, snapshotV2Magic)
	if d.err == nil && !v2 && !bytes.Equal(magic, snapshotMagic) {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	s := &State{Seq: d.uvarint()}
	d.held = &s.held
	s.Meta = decodeStrings(d, d.text)
	if v2 {
		s.Endpoints = decodeAddrs(d, d.endpointV2)
		s.Services = decodeAddrs(d, d.serviceV2)
		d.permitsV2(s)
	} else {
		s.Endpoints = decodeAddrs(d, d.endpoint)
		s.Services = decodeAddrs(d, d.service)
	}
	s.Quotas = decodeStrings(d, d.float)
	s.Potato = decodeStrings(d, d.text)
	s.Groups = decodeStrings(d, d.addrs)
	s.Names = decodeStrings(d, d.addr)
	s.EIPPools = decodeStrings(d, d.pool)
	s.SIPPools = decodeStrings(d, d.pool)
	if left := d.left(); d.err == nil && left != 0 {
		d.fail("%d bytes after the last section", left)
	}
	if d.err != nil {
		return nil, d.err
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, fmt.Errorf("checksum: %w", err)
	}
	if binary.LittleEndian.Uint32(trailer[:]) != sum.Sum32() {
		return nil, errors.New("checksum mismatch")
	}
	return s, nil
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// left is how many payload bytes are still unread.
func (d *decoder) left() uint64 { return uint64(d.lim.N) + uint64(d.r.Buffered()) }

// read returns the next n bytes, valid until the next read; after an
// error, n bytes of whatever.
func (d *decoder) read(n int) []byte {
	d.buf = slices.Grow(d.buf[:0], n)[:n]
	if d.err == nil {
		if _, err := io.ReadFull(d.r, d.buf); err != nil {
			d.fail("truncated")
		}
	}
	return d.buf
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.fail("bad varint: %v", err)
	}
	return v
}

// varint undoes binary.AppendVarint's zig-zag encoding.
func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// bounded is n as a count of things that take at least each bytes: at
// most the bytes left can hold.
func (d *decoder) bounded(n, each uint64) int {
	if left := d.left(); n > left/each {
		d.fail("count %d with %d bytes left", n, left)
		return 0
	}
	return int(n)
}

func (d *decoder) count() int { return d.bounded(d.uvarint(), 1) }

func (d *decoder) addr() addr.IP {
	v := d.uvarint()
	if v > math.MaxUint32 {
		d.fail("address %d", v)
	}
	return addr.IP(v)
}

func (d *decoder) text() string {
	b := d.read(d.count())
	if d.seen == nil {
		return string(b)
	}
	s, ok := d.seen[string(b)]
	if !ok {
		s = string(b)
		d.seen[s] = s
	}
	return s
}

func (d *decoder) float() float64 { return math.Float64frombits(bits.ReverseBytes64(d.uvarint())) }

// ref reads an index into table, or — at the index one past its end — the
// new entry next reads, which joins the table.
func ref[T any](d *decoder, table *[]T, next func() T) T {
	i := d.uvarint()
	if i == uint64(len(*table)) {
		*table = append(*table, next())
	}
	if i >= uint64(len(*table)) {
		d.fail("index %d past a %d-entry table", i, len(*table))
		var zero T
		return zero
	}
	return (*table)[i]
}

// nilable reads the length encoder.nilable writes, of things that take
// at least each bytes: ok is false for nil.
func (d *decoder) nilable(each uint64) (n int, ok bool) {
	c := d.uvarint()
	if c == 0 {
		return 0, false
	}
	return d.bounded(c-1, each), true
}

func (d *decoder) addrs() []addr.IP {
	n, ok := d.nilable(1)
	if !ok {
		return nil
	}
	ips := make([]addr.IP, n)
	for i := range ips {
		ips[i] = d.addr()
	}
	return ips
}

func decodeAddrs[V any](d *decoder, value func() V) *addr.Table[V] {
	t := new(addr.Table[V])
	d.keyed(d.count(), func(ip addr.IP) { t.Put(ip, value()) })
	return t
}

// keyed reads n addresses written as gaps, calling value after each.
func (d *decoder) keyed(n int, value func(addr.IP)) {
	var ip uint64
	for i := 0; i < n && d.err == nil; i++ {
		gap := d.uvarint()
		if gap > math.MaxUint32-ip || i > 0 && gap == 0 {
			d.fail("address gap %d after %d", gap, ip)
		}
		ip += gap
		value(addr.IP(ip))
	}
}

func decodeStrings[V any](d *decoder, value func() V) map[string]V {
	n := d.count()
	m := make(map[string]V, n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.text()
		m[k] = value()
	}
	return m
}

func (d *decoder) str() string { return ref(d, &d.strs, d.text) }

// endpoint reads an endpoint record.
func (d *decoder) endpoint() *Endpoint {
	return &Endpoint{Placement: d.placement(), EgressCap: d.float(), Permits: d.permits(1)}
}

// placement reads a placement-table reference. A placement's first
// reference holds it in the state's table; each later one counts one more
// holder of that table entry.
func (d *decoder) placement() *Placement {
	switch i, n := d.uvarint(), uint64(len(d.places)); {
	case i == n:
		h := d.held.placeEntry(Placement{d.str(), d.str(), d.str(), d.str()})
		d.places = append(d.places, h)
		return h.p
	case i < n:
		d.places[i].n++
		return d.places[i].p
	default:
		d.fail("placement %d past a %d-entry table", i, n)
		return nil
	}
}

func (d *decoder) service() *Service {
	svc := d.serviceV2()
	svc.Permits = d.permits(1)
	return svc
}

// permits reads a permit-list reference, base more than the list's index
// (DNETSNP3's 1: 0 is no list). Like a placement, a list's first
// reference holds it in the state's table — one set per distinct list,
// even where the file lists one twice — and each later one counts one
// more holder.
func (d *decoder) permits(base uint64) *addr.PrefixSet {
	i := d.uvarint()
	if i < base {
		return nil
	}
	switch i, n := i-base, uint64(len(d.sets)); {
	case i == n:
		h := d.held.holdEntry(d.set())
		d.sets = append(d.sets, h)
		return h.set
	case i < n:
		d.sets[i].n++
		return d.sets[i].set
	default:
		d.fail("permit list %d past a %d-entry table", i, n)
		return nil
	}
}

// entries reads a permit list's entries. A prefix length outside 0–32 is
// one no writer produces, and a set holding it would match nothing.
func (d *decoder) entries() []addr.Prefix {
	list := make([]addr.Prefix, d.count())
	for i := range list {
		a, n := d.addr(), d.varint()
		if n < 0 || n > 32 {
			d.fail("prefix length %d", n)
		}
		list[i] = addr.Prefix{Addr: a, Len: int(n)}
	}
	return list
}

// set reads a permit list of the snapshot's table, whose entries' cap is
// their len: an append by one holder never writes under another.
func (d *decoder) set() *addr.PrefixSet { return addr.AdoptPrefixSet(d.entries()) }

func (d *decoder) pool() *PoolState {
	return &PoolState{Next: d.addr(), Released: d.addrs()}
}

// DNETSNP2, read only to upgrade: an endpoint record is its four string
// references and its egress cap, a service record has no list, and the
// lists follow the services in a permits section of their own — each
// target's address gap, its tenant's string reference and a list
// reference (the list's index, the first followed by the list).

func (d *decoder) endpointV2() *Endpoint {
	return &Endpoint{Placement: d.held.place(Placement{d.str(), d.str(), d.str(), d.str()}), EgressCap: d.float()}
}

func (d *decoder) serviceV2() *Service {
	svc := &Service{Tenant: d.str(), Provider: d.str(), Binds: make([]Bind, d.count())}
	for i := range svc.Binds {
		svc.Binds[i] = Bind{EIP: d.addr(), Weight: int(d.varint())}
	}
	return svc
}

// permitsV2 reads the permits section into the records decoded before it:
// each list must belong to an endpoint or service of its tenant.
func (d *decoder) permitsV2(s *State) {
	d.keyed(d.count(), func(ip addr.IP) {
		tenant, list := d.str(), d.permits(0)
		ep, _ := s.Endpoints.Get(ip)
		if svc, _ := s.Services.Get(ip); ep != nil && ep.Tenant == tenant {
			ep.Permits = list
		} else if ep == nil && svc != nil && svc.Tenant == tenant {
			svc.Permits = list
		} else {
			d.fail("permit list for %s, which tenant %q holds no record of", ip, tenant)
		}
	})
}
