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
// bytes, and the decoder reads through a bufio.Reader. The JSON format
// before this one is read (never written) by decodeJSONSnapshot.
package intent

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"

	"declnet/internal/addr"
)

// snapshotMagic opens every snapshot file: format name plus version.
var snapshotMagic = []byte("DNETSNP2")

// spillAt is how many pending bytes the encoder hands to its writer at a
// time: the file's write size.
const spillAt = 64 << 10

type snapEncoder struct {
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
	e := &snapEncoder{w: w, b: make([]byte, 0, spillAt+4<<10), strs: map[string]uint64{}, lists: map[string]uint64{}}
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
func (e *snapEncoder) spill(n int) {
	if len(e.b) < n {
		return
	}
	e.sum = crc32.Update(e.sum, crc32.IEEETable, e.b)
	if _, err := e.w.Write(e.b); err != nil && e.err == nil {
		e.err = err
	}
	e.b = e.b[:0]
}

func addrSection[V any](e *snapEncoder, m map[addr.IP]*V, value func(*V)) {
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
func some[V any](e *snapEncoder, v *V, value func(*V)) {
	if v != nil {
		value(v)
	} else if e.err == nil {
		e.err = fmt.Errorf("snapshot: nil %T", v)
	}
}

// stringSection is addrSection for the string-keyed sections, which are
// a handful of entries per tenant.
func stringSection[V any](e *snapEncoder, m map[string]V, value func(V)) {
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

func (e *snapEncoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *snapEncoder) addr(ip addr.IP)  { e.uvarint(uint64(ip)) }

func (e *snapEncoder) text(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// float writes f as gob does, so 0 takes one byte and a round number a few.
func (e *snapEncoder) float(f float64) { e.uvarint(bits.ReverseBytes64(math.Float64bits(f))) }

// ref writes s as a string-table reference.
func (e *snapEncoder) ref(s string) {
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

func (e *snapEncoder) addrs(ips []addr.IP) {
	if ips == nil {
		e.uvarint(0)
		return
	}
	e.uvarint(uint64(len(ips)) + 1)
	for _, ip := range ips {
		e.addr(ip)
	}
}

func (e *snapEncoder) endpoint(ep *Endpoint) {
	e.ref(ep.Tenant)
	e.ref(ep.VM)
	e.ref(ep.Provider)
	e.ref(ep.Region)
	e.float(ep.EgressCap)
}

func (e *snapEncoder) service(svc *Service) {
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
func (e *snapEncoder) permitList(pl *PermitList) {
	e.ref(pl.Tenant)
	e.list = binary.AppendUvarint(e.list[:0], uint64(len(pl.Entries)))
	for _, p := range pl.Entries {
		e.list = binary.AppendVarint(binary.AppendUvarint(e.list, uint64(p.Addr)), int64(p.Len))
	}
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

func (e *snapEncoder) pool(ps *PoolState) {
	e.addr(ps.Next)
	e.addrs(ps.Released)
}

type snapDecoder struct {
	r     *bufio.Reader
	lim   *io.LimitedReader // the payload, beneath r
	buf   []byte            // the string being read
	strs  []string
	lists [][]addr.Prefix
	err   error // the first thing wrong; every read after it returns zero
}

// decodeSnapshot reads a binary snapshot of size bytes. Any input is safe: a
// count larger than the bytes left to hold it, an index past its table, an
// address past 32 bits or a checksum that does not match is an error, and
// nothing is allocated that the input's size does not bound.
func decodeSnapshot(r io.Reader, size int64) (*State, error) {
	sum := crc32.NewIEEE()
	d := &snapDecoder{lim: &io.LimitedReader{R: r, N: max(size-4, 0)}}
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

func (d *snapDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// left is how many payload bytes are still unread.
func (d *snapDecoder) left() uint64 { return uint64(d.lim.N) + uint64(d.r.Buffered()) }

// read returns the next n bytes, valid until the next read; after an
// error, n bytes of whatever.
func (d *snapDecoder) read(n int) []byte {
	d.buf = slices.Grow(d.buf[:0], n)[:n]
	if d.err == nil {
		if _, err := io.ReadFull(d.r, d.buf); err != nil {
			d.fail("truncated")
		}
	}
	return d.buf
}

func (d *snapDecoder) uvarint() uint64 {
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
func (d *snapDecoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// bounded is n as a count of things that take at least a byte each: at
// most the bytes left.
func (d *snapDecoder) bounded(n uint64) int {
	if left := d.left(); n > left {
		d.fail("count %d with %d bytes left", n, left)
		return 0
	}
	return int(n)
}

func (d *snapDecoder) count() int { return d.bounded(d.uvarint()) }

func (d *snapDecoder) addr() addr.IP {
	v := d.uvarint()
	if v > math.MaxUint32 {
		d.fail("address %d", v)
	}
	return addr.IP(v)
}

func (d *snapDecoder) text() string { return string(d.read(d.count())) }

func (d *snapDecoder) float() float64 { return math.Float64frombits(bits.ReverseBytes64(d.uvarint())) }

// ref reads an index into table, or — at the index one past its end — the
// new entry next reads, which joins the table.
func ref[T any](d *snapDecoder, table *[]T, next func() T) T {
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

func (d *snapDecoder) addrs() []addr.IP {
	n := d.uvarint()
	if n == 0 {
		return nil
	}
	ips := make([]addr.IP, d.bounded(n-1))
	for i := range ips {
		ips[i] = d.addr()
	}
	return ips
}

func decodeAddrs[V any](d *snapDecoder, value func() V) map[addr.IP]V {
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

func decodeStrings[V any](d *snapDecoder, value func() V) map[string]V {
	n := d.count()
	m := make(map[string]V, n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.text()
		m[k] = value()
	}
	return m
}

func (d *snapDecoder) endpoint() *Endpoint {
	return &Endpoint{Tenant: ref(d, &d.strs, d.text), VM: ref(d, &d.strs, d.text),
		Provider: ref(d, &d.strs, d.text), Region: ref(d, &d.strs, d.text), EgressCap: d.float()}
}

func (d *snapDecoder) service() *Service {
	svc := &Service{Tenant: ref(d, &d.strs, d.text), Provider: ref(d, &d.strs, d.text), Binds: make([]Bind, d.count())}
	for i := range svc.Binds {
		svc.Binds[i] = Bind{EIP: d.addr(), Weight: int(d.varint())}
	}
	return svc
}

// permitList hands every target declaring the same list one slice, whose
// cap is its len: an append by one holder never writes under another.
func (d *snapDecoder) permitList() *PermitList {
	return &PermitList{Tenant: ref(d, &d.strs, d.text), Entries: ref(d, &d.lists, d.entries)}
}

func (d *snapDecoder) entries() []addr.Prefix {
	list := make([]addr.Prefix, d.count())
	for i := range list {
		list[i] = addr.Prefix{Addr: d.addr(), Len: int(d.varint())}
	}
	return list
}

func (d *snapDecoder) pool() *PoolState {
	return &PoolState{Next: d.addr(), Released: d.addrs()}
}

// decodeJSONSnapshot folds a JSON snapshot stream into s, one entry at a
// time. As json.Unmarshal into a State would, it skips an unknown
// top-level key and ignores whatever follows the object; a null section
// leaves the section empty.
func (s *State) decodeJSONSnapshot(r io.Reader) error {
	dec := json.NewDecoder(r)
	if tok, err := dec.Token(); err != nil {
		return err
	} else if tok != json.Delim('{') {
		return fmt.Errorf("snapshot is %v, want an object", tok)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch key, _ := tok.(string); key {
		case "seq":
			err = dec.Decode(&s.Seq)
		case "meta":
			if s.Meta == nil {
				s.Meta = make(map[string]string)
			}
			err = decodeSection(dec, s.Meta, stringKey)
		case "endpoints":
			err = decodeSection(dec, s.Endpoints, addrKey)
		case "services":
			err = decodeSection(dec, s.Services, addrKey)
		case "permits":
			err = decodeSection(dec, s.Permits, addrKey)
		case "quotas":
			err = decodeSection(dec, s.Quotas, stringKey)
		case "potato":
			err = decodeSection(dec, s.Potato, stringKey)
		case "prov_groups":
			err = fmt.Errorf("provider-scoped groups are not supported (groups are tenant-wide)")
		case "groups":
			err = decodeSection(dec, s.Groups, stringKey)
		case "names":
			err = decodeSection(dec, s.Names, stringKey)
		case "eip_pools":
			err = decodeSection(dec, s.EIPPools, stringKey)
		case "sip_pools":
			err = decodeSection(dec, s.SIPPools, stringKey)
		default:
			var skipped json.RawMessage
			err = dec.Decode(&skipped)
		}
		if err != nil {
			return fmt.Errorf("%v: %w", tok, err)
		}
	}
	_, err := dec.Token() // the closing brace, or the syntax error in its place
	return err
}

func stringKey(k string) (string, error) { return k, nil }

func addrKey(k string) (addr.IP, error) {
	v, err := strconv.ParseUint(k, 10, 32)
	return addr.IP(v), err
}

// decodeSection decodes one section object into m entry by entry, so the
// decoder's buffer never holds more than one entry.
func decodeSection[K comparable, V any](dec *json.Decoder, m map[K]V, parseKey func(string) (K, error)) error {
	tok, err := dec.Token()
	if err != nil || tok == nil {
		return err
	}
	if tok != json.Delim('{') {
		return fmt.Errorf("section is %v, want an object", tok)
	}
	var v V // one heap cell for the section, not one per entry
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		name, _ := tok.(string)
		key, err := parseKey(name)
		if err != nil {
			return err
		}
		v = *new(V) // or Decode would fill the previous entry's pointer or slice again
		if err := dec.Decode(&v); err != nil {
			return err
		}
		m[key] = v
	}
	_, err = dec.Token()
	return err
}
