package obs

import (
	"encoding/binary"
	"math"
	"strconv"
	"time"

	"declnet/internal/addr"
)

// ring is one tenant's decisions, oldest first, packed as variable-length
// records into a circular byte buffer. A record holds only the fields its
// decision has:
//
//	uvarint  length of the rest of the record
//	uvarint  sequence number minus the previous record's in this ring
//	byte     flags: which of the optional fields below follow
//	byte     Kind
//	byte     Verdict
//	[4]byte  Src, Dst                          (hasSrc, hasDst)
//	varint   At                                (hasAt)
//	uvarint  Entries, Epoch                    (hasEntries, hasEpoch)
//	uvarint  length, then the bytes of Detail  (hasDetail)
//	uvarint  length, then the bytes of Cause   (hasCause)
//
// A permit-update — a destination, a list size and an epoch — takes 11
// or 12 bytes. The ring is bounded by its count of records, not bytes:
// push evicts the oldest record once the ring holds max. The buffer
// doubles only when a record does not fit, so it holds at most about
// twice the bytes of its records, and recording into a ring whose buffer
// has grown to its records' size allocates nothing.
type ring struct {
	buf         []byte
	head, used  int    // the oldest record's offset; the bytes the records fill
	n           int    // records held
	first, last uint64 // the oldest and the newest record's sequence number
}

// The flags byte's bits, one per optional field.
const (
	hasSrc = 1 << iota
	hasDst
	hasAt
	hasEntries
	hasEpoch
	hasDetail
	hasCause
)

// minRing is the size of a ring's first buffer.
const minRing = 64

// push appends d, stamped seq, evicting the oldest record first when the
// ring already holds max. A Detail longer than 64 KiB − 1 is cut there.
func (r *ring) push(seq uint64, d *Decision, max int) (evicted bool) {
	if r.n == max {
		r.evict()
		evicted = true
	}
	var delta uint64
	if r.n == 0 {
		r.first = seq
	} else {
		delta = seq - r.last
	}
	detail := d.Detail
	if len(detail) > math.MaxUint16 {
		detail = detail[:math.MaxUint16]
	}

	// The record's parts but its text, encoded on the stack: the fields
	// before Detail take at most 46 bytes.
	var fixed [48]byte
	var detailLen, causeLen, bodyLen [binary.MaxVarintLen64]byte
	h := binary.AppendUvarint(fixed[:0], delta)
	flags := len(h)
	h = append(h, 0, byte(d.Kind), byte(d.Verdict))
	if d.Src != 0 {
		h[flags] |= hasSrc
		h = binary.BigEndian.AppendUint32(h, uint32(d.Src))
	}
	if d.Dst != 0 {
		h[flags] |= hasDst
		h = binary.BigEndian.AppendUint32(h, uint32(d.Dst))
	}
	if d.At != 0 {
		h[flags] |= hasAt
		h = binary.AppendVarint(h, int64(d.At))
	}
	if d.Entries != 0 {
		h[flags] |= hasEntries
		h = binary.AppendUvarint(h, uint64(d.Entries))
	}
	if d.Epoch != 0 {
		h[flags] |= hasEpoch
		h = binary.AppendUvarint(h, d.Epoch)
	}
	dl, cl := detailLen[:0], causeLen[:0]
	if detail != "" {
		h[flags] |= hasDetail
		dl = binary.AppendUvarint(dl, uint64(len(detail)))
	}
	if d.Cause != "" {
		h[flags] |= hasCause
		cl = binary.AppendUvarint(cl, uint64(len(d.Cause)))
	}
	body := len(h) + len(dl) + len(detail) + len(cl) + len(d.Cause)
	bl := binary.AppendUvarint(bodyLen[:0], uint64(body))
	if size := len(bl) + body; r.used+size > len(r.buf) {
		r.grow(r.used + size)
	}

	off := (r.head + r.used) % len(r.buf)
	off = put(r.buf, off, bl)
	off = put(r.buf, off, h)
	off = put(r.buf, off, dl)
	off = put(r.buf, off, detail)
	off = put(r.buf, off, cl)
	put(r.buf, off, d.Cause)
	r.used += len(bl) + body
	r.n++
	r.last = seq
	return evicted
}

// put copies b into buf from off on, wrapping at buf's end, and returns
// the offset after it.
func put[T string | []byte](buf []byte, off int, b T) int {
	n := copy(buf[off:], b)
	copy(buf, b[n:])
	return (off + len(b)) % len(buf)
}

// evict drops the oldest record.
func (r *ring) evict() {
	size, _ := r.peek(r.head)
	r.head = (r.head + size) % len(r.buf)
	r.used -= size
	if r.n--; r.n > 0 {
		_, delta := r.peek(r.head)
		r.first += delta
	}
}

// peek reads the size and the sequence delta of the record at off.
func (r *ring) peek(off int) (size int, delta uint64) {
	var b [2 * binary.MaxVarintLen64]byte
	n := copy(b[:], r.buf[off:])
	copy(b[n:], r.buf) // the record may wrap past the buffer's end
	body, k := binary.Uvarint(b[:])
	delta, _ = binary.Uvarint(b[k:])
	return k + int(body), delta
}

// records copies the records, oldest first, to the start of dst.
func (r *ring) records(dst []byte) {
	n := copy(dst, r.buf[r.head:min(r.head+r.used, len(r.buf))])
	copy(dst[n:], r.buf[:r.used-n])
}

// grow moves the records to the start of a buffer of at least need
// bytes: the old size doubled until it is enough.
func (r *ring) grow(need int) {
	size := max(2*len(r.buf), minRing)
	for size < need {
		size *= 2
	}
	buf := make([]byte, size)
	r.records(buf)
	r.buf, r.head = buf, 0
}

// events renders up to n of the newest records as tenant's Events,
// oldest first (all of them when n <= 0); nil when the ring is empty.
func (r *ring) events(tenant string, n int) []Event {
	if n <= 0 || n > r.n {
		n = r.n
	}
	if n == 0 {
		return nil
	}
	b := make([]byte, r.used)
	r.records(b)
	out := make([]Event, 0, n)
	seq := r.first
	for i := range r.n {
		body, k := binary.Uvarint(b)
		rec := b[k : k+int(body)]
		b = b[k+int(body):]
		delta, k := binary.Uvarint(rec)
		if i > 0 { // the oldest record's delta is to one already evicted
			seq += delta
		}
		if i >= r.n-n {
			out = append(out, event(rec[k:], tenant, seq))
		}
	}
	return out
}

// event decodes a record, from its flags on, as the Event tenant reads:
// a permit list's two numbers as "entries=N epoch=N", an absent field as
// its zero.
func event(b []byte, tenant string, seq uint64) Event {
	flags := b[0]
	ev := Event{Seq: seq, Tenant: tenant, Kind: Kind(b[1]), Verdict: Verdict(b[2]).String()}
	b = b[3:]
	ip := func() string {
		v := addr.IP(binary.BigEndian.Uint32(b))
		b = b[4:]
		return v.String()
	}
	uvarint := func() uint64 {
		v, k := binary.Uvarint(b)
		b = b[k:]
		return v
	}
	text := func() string {
		n := uvarint()
		s := string(b[:n])
		b = b[n:]
		return s
	}
	var entries, epoch uint64
	if flags&hasSrc != 0 {
		ev.Src = ip()
	}
	if flags&hasDst != 0 {
		ev.Dst = ip()
	}
	if flags&hasAt != 0 {
		at, k := binary.Varint(b)
		ev.At, b = time.Duration(at), b[k:]
	}
	if flags&hasEntries != 0 {
		entries = uvarint()
	}
	if flags&hasEpoch != 0 {
		epoch = uvarint()
	}
	if flags&hasDetail != 0 {
		ev.Detail = text()
	}
	if flags&hasCause != 0 {
		ev.Cause = text()
	}
	if ev.Kind == PermitUpdate || ev.Kind == PermitDeny {
		ev.Detail = "entries=" + strconv.FormatUint(entries, 10) + " epoch=" + strconv.FormatUint(epoch, 10)
	}
	return ev
}
