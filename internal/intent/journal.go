// Journal framing: a fixed magic+version header followed by
// length-prefixed, CRC-guarded frames, each the binary encoding of one
// Record. The decoder is the crash-safety contract of the whole
// subsystem — it must stop cleanly at the last valid frame of an
// arbitrarily truncated or corrupted file, returning a typed
// *CorruptError, and must never panic (FuzzJournalDecode holds it to
// that).
//
// A frame's payload is built from the snapshot codec's primitives
// (snapshot.go) and refers to nothing outside itself:
//
//	seq                     uvarint
//	tenant                  length-prefixed string
//	meta                    count+1 (0 = nil), then key, value pairs
//	ops                     count+1 (0 = nil), then each op:
//	  verb                  one byte: the verb's index in verbCodes
//	  fields                uint16, little-endian: bit i set = field i below is present
//	  each present field    in bit order
//
// A field is present when it is not its zero value; a nil slice is
// absent and an empty one present with count 0. The fields, in bit order:
// VM, Provider, Region, Name, Policy (strings); Addr, EIP, SIP, Target
// (uvarint addresses); Weight (varint); Bps (a float as gob writes it);
// Entries (count, then each prefix's address and length); Groups (count,
// then each string); Members (count+1, then each address). Derived, Prev
// and Next are never written. Groups keeps its bit, but no frame sets it:
// a set_permit is journaled with its groups expanded, and State refuses
// one that names them.
package intent

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"declnet/internal/addr"
)

// journalMagic opens every journal file: format name plus version. It is
// the only version this build reads or writes; Open refuses a journal
// whose header names another one (see checkFormat), and a future
// frame-format change bumps the trailing digit.
var journalMagic = []byte("DNETJNL2")

// maxFrame bounds a frame payload (64 MiB). Real records are a few KiB
// at most — even a 4096-op batch stays far under this — so a larger
// claimed length can only be corruption.
const maxFrame = 1 << 26

// frameHeaderLen is the per-frame prefix: 4-byte little-endian payload
// length, 4-byte little-endian CRC32 (IEEE) of the payload.
const frameHeaderLen = 8

// verbCodes is the verb byte's table. It is append-only: a code, once
// written to a journal, names its verb for good.
var verbCodes = [...]string{1: OpRequestEIP, OpReleaseEIP, OpRequestSIP, OpReleaseSIP, OpBind, OpUnbind,
	OpSetPermit, OpPermit, OpRevoke, OpSetQoS, OpSetPotato, OpSetVMEgress, OpCreateGroup, OpRegisterName, OpUnregisterName}

// opFields is an op's fields in bit order: field i's bit is 1<<i. The
// order is append-only, as the verb codes are.
func opFields(op *Op) [14]any {
	return [...]any{&op.VM, &op.Provider, &op.Region, &op.Name, &op.Policy, &op.Addr, &op.EIP, &op.SIP,
		&op.Target, &op.Weight, &op.Bps, &op.Entries, &op.Groups, &op.Members}
}

// opMinLen is the fewest bytes an op takes: its verb byte and field
// bits. An op is 256 bytes in memory, so a count of ops is held to the
// bytes left to carry them.
const opMinLen = 3

// CorruptError reports where and why journal decoding stopped. Replay
// treats it as "the durable prefix ends here", not as failure: every
// frame before Offset decoded clean.
type CorruptError struct {
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("intent: journal corrupt at offset %d: %s", e.Offset, e.Reason)
}

// appendFrame appends rec's frame to b. It allocates only when b must
// grow.
func appendFrame(b []byte, rec *Record) []byte {
	start := len(b)
	e := encoder{b: append(b, make([]byte, frameHeaderLen)...)}
	e.uvarint(rec.Seq)
	e.text(rec.Tenant)
	e.nilable(len(rec.Meta), rec.Meta == nil)
	for k, v := range rec.Meta {
		e.text(k)
		e.text(v)
	}
	e.nilable(len(rec.Ops), rec.Ops == nil)
	for i := range rec.Ops {
		e.op(&rec.Ops[i])
	}
	payload := e.b[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(e.b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e.b[start+4:], crc32.ChecksumIEEE(payload))
	return e.b
}

func (e *encoder) op(op *Op) {
	// 0 for a verb the table does not name, which no frame holds: State
	// refuses such an op before its frame is encoded.
	code := slices.Index(verbCodes[:], op.Verb)
	at := len(e.b) + 1
	e.b = append(e.b, byte(max(code, 0)), 0, 0)
	var fields uint16
	for i, f := range opFields(op) {
		n := len(e.b)
		switch f := f.(type) {
		case *string:
			if *f != "" {
				e.text(*f)
			}
		case *addr.IP:
			if *f != 0 {
				e.addr(*f)
			}
		case *int:
			if *f != 0 {
				e.b = binary.AppendVarint(e.b, int64(*f))
			}
		case *float64:
			if math.Float64bits(*f) != 0 {
				e.float(*f)
			}
		case *[]addr.Prefix:
			if *f != nil {
				e.b = appendPrefixes(e.b, *f)
			}
		case *[]string:
			if *f != nil {
				e.uvarint(uint64(len(*f)))
				for _, s := range *f {
					e.text(s)
				}
			}
		case *[]addr.IP:
			if *f != nil {
				e.addrs(*f)
			}
		}
		if len(e.b) > n {
			fields |= 1 << i
		}
	}
	binary.LittleEndian.PutUint16(e.b[at:], fields)
}

// record decodes one frame's payload into rec.
func (d *decoder) record(rec *Record) {
	rec.Seq = d.uvarint()
	rec.Tenant = d.text()
	if n, ok := d.nilable(2); ok {
		rec.Meta = make(map[string]string, n)
		for i := 0; i < n && d.err == nil; i++ {
			k := d.text()
			rec.Meta[k] = d.text()
		}
	}
	if n, ok := d.nilable(opMinLen); ok {
		rec.Ops = make([]Op, n)
		for i := range rec.Ops {
			d.op(&rec.Ops[i])
		}
	}
	if left := d.left(); d.err == nil && left != 0 {
		d.fail("%d bytes after the record", left)
	}
}

func (d *decoder) op(op *Op) {
	h := d.read(opMinLen)
	code, fields := int(h[0]), binary.LittleEndian.Uint16(h[1:])
	if code == 0 || code >= len(verbCodes) {
		d.fail("unknown verb code %d", code)
	} else {
		op.Verb = verbCodes[code]
	}
	all := opFields(op)
	if fields >= 1<<len(all) {
		d.fail("unknown field bits %#x", fields)
	}
	for i, f := range all {
		if fields&(1<<i) == 0 {
			continue
		}
		switch f := f.(type) {
		case *string:
			*f = d.text()
		case *addr.IP:
			*f = d.addr()
		case *int:
			*f = int(d.varint())
		case *float64:
			*f = d.float()
		case *[]addr.Prefix:
			*f = d.entries()
		case *[]string:
			*f = make([]string, d.count())
			for j := range *f {
				(*f)[j] = d.text()
			}
		case *[]addr.IP:
			*f = d.addrs()
		}
	}
}

// DecodeJournal scans a journal byte stream. It returns every record of
// the longest valid prefix, the offset just past the last valid frame,
// and the corruption that stopped the scan — nil on a clean EOF, or the
// *CorruptError of a header that is not journalMagic or of a frame that
// is truncated, fails its checksum, claims an implausible length or does
// not decode. Any input is safe: a truncated, bit-flipped, or entirely
// foreign stream yields a *CorruptError, never a panic.
func DecodeJournal(r io.Reader) ([]Record, int64, error) {
	hdr := make([]byte, len(journalMagic))
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, 0, &CorruptError{Offset: 0, Reason: "missing or truncated header"}
	}
	if !bytes.Equal(hdr, journalMagic) {
		return nil, 0, &CorruptError{Offset: 0, Reason: fmt.Sprintf("bad magic %q", hdr)}
	}
	// Records repeat a handful of tenant, provider, region and VM
	// strings: the decoder keeps one copy of each.
	var src bytes.Reader
	lim := &io.LimitedReader{R: &src}
	d := &decoder{r: bufio.NewReader(lim), lim: lim, seen: map[string]string{}}
	var recs []Record
	off := int64(len(journalMagic))
	fh := make([]byte, frameHeaderLen)
	var buf []byte
	for {
		if _, err := io.ReadFull(r, fh); err != nil {
			if err == io.EOF {
				return recs, off, nil
			}
			return recs, off, &CorruptError{Offset: off, Reason: "truncated frame header"}
		}
		n := binary.LittleEndian.Uint32(fh[0:4])
		if n == 0 || n > maxFrame {
			return recs, off, &CorruptError{Offset: off, Reason: fmt.Sprintf("implausible frame length %d", n)}
		}
		payload, err := readPayload(r, buf, int(n))
		if err != nil {
			return recs, off, &CorruptError{Offset: off, Reason: "truncated frame payload"}
		}
		buf = payload
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(fh[4:8]) {
			return recs, off, &CorruptError{Offset: off, Reason: "frame checksum mismatch"}
		}
		src.Reset(payload)
		lim.N = int64(len(payload))
		d.r.Reset(lim)
		d.err = nil
		var rec Record
		if d.record(&rec); d.err != nil {
			return recs, off, &CorruptError{Offset: off, Reason: "frame payload is not a record: " + d.err.Error()}
		}
		recs = append(recs, rec)
		off += int64(frameHeaderLen) + int64(n)
	}
}

// readPayload reads exactly n bytes into buf's array when it has room.
// Large claims are read incrementally so a lying length prefix on a
// short stream cannot force a 64 MiB allocation (this keeps the fuzz
// target honest too).
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	if n <= max(cap(buf), 1<<16) {
		buf = slices.Grow(buf[:0], n)[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	var bb bytes.Buffer
	if _, err := io.CopyN(&bb, r, int64(n)); err != nil {
		return nil, err
	}
	return bb.Bytes(), nil
}
