// Journal framing: a fixed magic+version header followed by
// length-prefixed, CRC-guarded frames, each the binary encoding of one
// Record. The decoder is the crash-safety contract of the whole
// subsystem — it must stop cleanly at the last valid frame of an
// arbitrarily truncated or corrupted file, returning a typed
// *CorruptError, and must never panic (FuzzJournalDecode holds it to
// that).
//
// A frame's payload is built from the snapshot codec's primitives
// (snapshot.go):
//
//	seq                     uvarint
//	tenant                  string reference
//	meta                    count+1 (0 = nil), then key, value string references
//	ops                     count+1 (0 = nil), then each op:
//	  verb                  one byte: the verb's index in verbCodes
//	  fields                uint16, little-endian: bit i set = field i below is present
//	  each present field    in bit order
//
// A field is present when it is not its zero value; a nil slice is
// absent and an empty one present with count 0. The fields, in bit order:
// VM, Provider, Region, Name, Policy (string references); Addr, EIP, SIP,
// Target (uvarint addresses); Weight (varint); Bps (a float as gob writes
// it); Entries (a set_permit's list reference; a permit's or revoke's
// count, then each prefix's address and length); Groups (count, then each
// string reference); Members (count+1, then each address). Derived, Prev
// and Next are never written. Groups keeps its bit, but no frame sets it:
// a set_permit is journaled with its groups expanded, and State refuses
// one that names them.
//
// Strings and set_permit lists are written through the snapshot's
// reference tables, which live for one journal file: a value's first use
// in the file writes its index (the table's length) and the value, every
// later use its index alone. The writer keys a string by its value and a
// list by its bytes. Every reference points back, so any prefix of whole
// frames decodes alone; a writer appending to a file whose tail was cut
// numbers from what the surviving frames defined (Log.replay). A DNETJNL2
// journal, the format before, is refused by Open (see checkFormat).
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
// the only version this build reads or writes. Open refuses a journal
// whose header names another one (see checkFormat), and a future
// frame-format change bumps the trailing digit.
var journalMagic = []byte("DNETJNL3")

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

// frame appends rec's frame to e.b, through e's string and list tables:
// those of the journal file the frame goes to. It allocates only when e.b
// must grow or a value joins a table.
func (e *encoder) frame(rec *Record) {
	start := len(e.b)
	e.b = append(e.b, make([]byte, frameHeaderLen)...)
	e.uvarint(rec.Seq)
	e.ref(rec.Tenant)
	e.nilable(len(rec.Meta), rec.Meta == nil)
	for k, v := range rec.Meta {
		e.ref(k)
		e.ref(v)
	}
	e.nilable(len(rec.Ops), rec.Ops == nil)
	for i := range rec.Ops {
		e.op(&rec.Ops[i])
	}
	payload := e.b[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(e.b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e.b[start+4:], crc32.ChecksumIEEE(payload))
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
				e.ref(*f)
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
			if *f != nil && op.Verb == OpSetPermit {
				e.list(*f)
			} else if *f != nil {
				e.b = appendPrefixes(e.b, *f)
			}
		case *[]string:
			if *f != nil {
				e.uvarint(uint64(len(*f)))
				for _, s := range *f {
					e.ref(s)
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

// list writes a set_permit's list as a list-table reference, keyed by its
// bytes: what its first use writes after the index. A list the table
// holds is looked up without a copy of its key.
func (e *encoder) list(entries []addr.Prefix) {
	e.key = appendPrefixes(e.key[:0], entries)
	if i, seen := e.lists.ids[string(e.key)]; seen {
		e.uvarint(i)
	} else if !index(e, &e.lists, string(e.key), 0) {
		e.b = append(e.b, e.key...)
	}
}

// record decodes one frame's payload into rec.
func (d *decoder) record(rec *Record) {
	rec.Seq = d.uvarint()
	rec.Tenant = d.str()
	if n, ok := d.nilable(2); ok {
		rec.Meta = make(map[string]string, n)
		for i := 0; i < n && d.err == nil; i++ {
			k := d.str()
			rec.Meta[k] = d.str()
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
			*f = d.str()
		case *addr.IP:
			*f = d.addr()
		case *int:
			*f = int(d.varint())
		case *float64:
			*f = d.float()
		case *[]addr.Prefix:
			if op.Verb == OpSetPermit {
				*f = ref(d, &d.lists, d.entries)
			} else {
				*f = d.entries()
			}
		case *[]string:
			*f = make([]string, d.count())
			for j := range *f {
				(*f)[j] = d.str()
			}
		case *[]addr.IP:
			*f = d.addrs()
		}
	}
}

// resume makes e the writer of the journal file d read: its tables hold
// what the file's surviving frames defined, at their indexes, so that the
// next frame's first use of a value takes the next index.
func (e *encoder) resume(d *decoder) {
	*e = encoder{b: e.b[:0], strs: refs[string]{ids: map[string]uint64{}, n: uint64(len(d.strs))},
		lists: refs[string]{ids: map[string]uint64{}, n: uint64(len(d.lists))}}
	// Backward, so that a value the file defined twice keeps its first index.
	for i := len(d.strs) - 1; i >= 0; i-- {
		e.strs.ids[d.strs[i]] = uint64(i)
	}
	for i := len(d.lists) - 1; i >= 0; i-- {
		e.lists.ids[string(appendPrefixes(nil, d.lists[i]))] = uint64(i)
	}
}

// DecodeJournal scans a DNETJNL3 journal byte stream. It
// returns every record of the longest valid prefix, the offset just past
// the last valid frame, and the corruption that stopped the scan — nil on
// a clean EOF, or the *CorruptError of a header that names another format
// or of a frame that is truncated, fails its checksum, claims an
// implausible length or does not decode. Any input is safe: a truncated,
// bit-flipped, or entirely foreign stream yields a *CorruptError, never a
// panic.
func DecodeJournal(r io.Reader) ([]Record, int64, error) {
	_, recs, off, err := decodeJournal(r)
	return recs, off, err
}

// decodeJournal is DecodeJournal, also returning the decoder, whose
// string and list tables hold what the returned frames defined and
// nothing of the frame that stopped the scan.
func decodeJournal(r io.Reader) (*decoder, []Record, int64, error) {
	var src bytes.Reader
	lim := &io.LimitedReader{R: &src}
	d := &decoder{r: bufio.NewReader(lim), lim: lim}
	hdr := make([]byte, len(journalMagic))
	if _, err := io.ReadFull(r, hdr); err != nil {
		return d, nil, 0, &CorruptError{Offset: 0, Reason: "missing or truncated header"}
	}
	if !bytes.Equal(hdr, journalMagic) {
		return d, nil, 0, &CorruptError{Offset: 0, Reason: fmt.Sprintf("bad magic %q", hdr)}
	}
	var recs []Record
	off := int64(len(journalMagic))
	fh := make([]byte, frameHeaderLen)
	var buf []byte
	for {
		if _, err := io.ReadFull(r, fh); err != nil {
			if err == io.EOF {
				return d, recs, off, nil
			}
			return d, recs, off, &CorruptError{Offset: off, Reason: "truncated frame header"}
		}
		n := binary.LittleEndian.Uint32(fh[0:4])
		if n == 0 || n > maxFrame {
			return d, recs, off, &CorruptError{Offset: off, Reason: fmt.Sprintf("implausible frame length %d", n)}
		}
		payload, err := readPayload(r, buf, int(n))
		if err != nil {
			return d, recs, off, &CorruptError{Offset: off, Reason: "truncated frame payload"}
		}
		buf = payload
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(fh[4:8]) {
			return d, recs, off, &CorruptError{Offset: off, Reason: "frame checksum mismatch"}
		}
		src.Reset(payload)
		lim.N = int64(len(payload))
		d.r.Reset(lim)
		d.err = nil
		var rec Record
		strs, lists := len(d.strs), len(d.lists)
		if d.record(&rec); d.err != nil {
			d.strs, d.lists = d.strs[:strs], d.lists[:lists]
			return d, recs, off, &CorruptError{Offset: off, Reason: "frame payload is not a record: " + d.err.Error()}
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
