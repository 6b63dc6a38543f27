// The snapshot codec. The snapshot holds the declared world in what it
// costs to say: most endpoints share a handful of tenant, VM, provider and
// region strings and most permit lists are one of a few distinct lists, so
// each string and each distinct list is written once and referred to by
// index after that. The layout, every integer a varint and every float a
// uvarint of its byte-reversed bits (gob's form: 0 is one byte):
//
//	"DNETSNP2"
//	seq
//	meta                      string-keyed section
//	endpoints                 address-keyed section
//	services                  address-keyed section
//	permits                   address-keyed section
//	quotas, potato, groups, names, eip_pools, sip_pools
//	CRC32 (IEEE, little-endian) of every byte before it
//
// An address-keyed section is a count, then each entry in ascending
// address order, its address written as the gap from the one before. A
// string-keyed section is a count, then each entry in key order, its key
// a length-prefixed string. A string or permit-list reference is an index
// into a table both ends build as they go: the first reference to a value
// is the table's length, followed by the value itself. A slice that may be
// nil is its length plus one, 0 meaning nil.
//
// Neither direction holds a second copy of the world: the encoder appends
// one entry at a time into a buffer it hands to the file every spillAt
// bytes, and the decoder reads through a bufio.Reader. The journal's
// frames (journal.go) are written and read with the same encoder and
// decoder. This is the only snapshot format the store reads: Open refuses
// the JSON one before it (see checkFormat).
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
var snapshotMagic = []byte("DNETSNP2")

// spillAt is how many pending bytes the encoder hands to its writer at a
// time: the file's write size.
const spillAt = 64 << 10

// encoder appends the codec's primitives to b. A frame encoder uses b
// alone; a snapshot's also the rest.
type encoder struct {
	w     io.Writer
	b     []byte            // bytes not yet handed to w
	sum   uint32            // CRC32 of the bytes handed to w
	keys  []addr.IP         // sort keys, reused across the address-keyed sections
	strs  map[string]uint64 // the string table
	lists map[string]uint64 // the permit-list table, keyed by each list's encoding
	list  []byte            // the permit list being looked up
	err   error             // the first write error or unencodable entry
}

// encodeSnapshot streams s to w and returns the first write error, or the
// first entry Apply could not have stored (a nil one).
func (s *State) encodeSnapshot(w io.Writer) error {
	e := &encoder{w: w, b: make([]byte, 0, spillAt+4<<10), strs: map[string]uint64{}, lists: map[string]uint64{}}
	e.b = append(e.b, snapshotMagic...)
	e.uvarint(s.Seq)
	stringSection(e, s.Meta, e.text)
	addrSection(e, s.Endpoints, e.endpoint)
	addrSection(e, s.Services, e.service)
	addrSection(e, s.Permits, e.permitList)
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

func addrSection[V any](e *encoder, m map[addr.IP]*V, value func(*V)) {
	e.keys = slices.Grow(e.keys[:0], len(m))
	for ip := range m {
		e.keys = append(e.keys, ip)
	}
	slices.Sort(e.keys)
	e.uvarint(uint64(len(m)))
	var prev addr.IP
	for _, ip := range e.keys {
		e.uvarint(uint64(ip - prev))
		prev = ip
		some(e, m[ip], value)
		e.spill(spillAt)
	}
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

// ref writes s as a string-table reference.
func (e *encoder) ref(s string) {
	i, seen := e.strs[s]
	if !seen {
		i = uint64(len(e.strs))
		e.strs[s] = i
	}
	e.uvarint(i)
	if !seen {
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
	e.ref(ep.Tenant)
	e.ref(ep.VM)
	e.ref(ep.Provider)
	e.ref(ep.Region)
	e.float(ep.EgressCap)
}

func (e *encoder) service(svc *Service) {
	e.ref(svc.Tenant)
	e.ref(svc.Provider)
	e.uvarint(uint64(len(svc.Binds)))
	for _, b := range svc.Binds {
		e.addr(b.EIP)
		e.b = binary.AppendVarint(e.b, int64(b.Weight))
	}
}

// permitList writes the tenant and a permit-list-table reference. A list
// is its length, then each entry's address and length.
func (e *encoder) permitList(pl *PermitList) {
	e.ref(pl.Tenant)
	e.list = appendPrefixes(e.list[:0], pl.Entries)
	i, seen := e.lists[string(e.list)]
	if !seen {
		i = uint64(len(e.lists))
		e.lists[string(e.list)] = i
	}
	e.uvarint(i)
	if !seen {
		e.b = append(e.b, e.list...)
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
	r     *bufio.Reader
	lim   *io.LimitedReader // the payload, beneath r
	buf   []byte            // the string being read
	strs  []string
	lists [][]addr.Prefix
	seen  map[string]string // the strings read so far, when the caller keeps one copy of each
	err   error             // the first thing wrong; every read after it returns zero
}

// decodeSnapshot reads a binary snapshot of size bytes. Any input is safe: a
// count larger than the bytes left to hold it, an index past its table, an
// address past 32 bits or a checksum that does not match is an error, and
// nothing is allocated that the input's size does not bound.
func decodeSnapshot(r io.Reader, size int64) (*State, error) {
	sum := crc32.NewIEEE()
	d := &decoder{lim: &io.LimitedReader{R: r, N: max(size-4, 0)}}
	d.r = bufio.NewReaderSize(io.TeeReader(d.lim, sum), 64<<10)
	if magic := d.read(len(snapshotMagic)); d.err == nil && !bytes.Equal(magic, snapshotMagic) {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	s := &State{Seq: d.uvarint()}
	s.Meta = decodeStrings(d, d.text)
	s.Endpoints = decodeAddrs(d, d.endpoint)
	s.Services = decodeAddrs(d, d.service)
	s.Permits = decodeAddrs(d, d.permitList)
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

func decodeAddrs[V any](d *decoder, value func() V) map[addr.IP]V {
	n := d.count()
	m := make(map[addr.IP]V, n)
	var ip uint64
	for i := 0; i < n && d.err == nil; i++ {
		gap := d.uvarint()
		if gap > math.MaxUint32-ip || i > 0 && gap == 0 {
			d.fail("address gap %d after %d", gap, ip)
		}
		ip += gap
		m[addr.IP(ip)] = value()
	}
	return m
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

func (d *decoder) endpoint() *Endpoint {
	return &Endpoint{Tenant: ref(d, &d.strs, d.text), VM: ref(d, &d.strs, d.text),
		Provider: ref(d, &d.strs, d.text), Region: ref(d, &d.strs, d.text), EgressCap: d.float()}
}

func (d *decoder) service() *Service {
	svc := &Service{Tenant: ref(d, &d.strs, d.text), Provider: ref(d, &d.strs, d.text), Binds: make([]Bind, d.count())}
	for i := range svc.Binds {
		svc.Binds[i] = Bind{EIP: d.addr(), Weight: int(d.varint())}
	}
	return svc
}

// permitList hands every target declaring the same list one slice, whose
// cap is its len: an append by one holder never writes under another.
func (d *decoder) permitList() *PermitList {
	return &PermitList{Tenant: ref(d, &d.strs, d.text), Entries: ref(d, &d.lists, d.entries)}
}

func (d *decoder) entries() []addr.Prefix {
	list := make([]addr.Prefix, d.count())
	for i := range list {
		list[i] = addr.Prefix{Addr: d.addr(), Len: int(d.varint())}
	}
	return list
}

func (d *decoder) pool() *PoolState {
	return &PoolState{Next: d.addr(), Released: d.addrs()}
}
