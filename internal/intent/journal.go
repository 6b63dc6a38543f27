// Journal framing: a fixed magic+version header followed by
// length-prefixed, CRC-guarded JSON frames. The decoder is the
// crash-safety contract of the whole subsystem — it must stop cleanly
// at the last valid frame of an arbitrarily truncated or corrupted
// file, returning a typed *CorruptError, and must never panic
// (FuzzJournalDecode holds it to that).
package intent

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// journalMagic opens every journal file: format name plus version. A
// future frame-format change bumps the trailing digit and keeps a
// decoder for the old one.
var journalMagic = []byte("DNETJNL1")

// maxFrame bounds a frame payload (64 MiB). Real records are a few KiB
// at most — even a 4096-op batch stays far under this — so a larger
// claimed length can only be corruption.
const maxFrame = 1 << 26

// frameHeaderLen is the per-frame prefix: 4-byte little-endian payload
// length, 4-byte little-endian CRC32 (IEEE) of the payload.
const frameHeaderLen = 8

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

// encodeFrame renders one record as a wire frame.
func encodeFrame(rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeaderLen:], payload)
	return buf, nil
}

// frame is one scanned journal frame: the offset it starts at, the
// checksum its header claims, and its payload.
type frame struct {
	off     int64
	sum     uint32
	payload []byte
}

// decode checks the payload against the claimed checksum and unmarshals
// it into rec.
func (f *frame) decode(rec *Record) error {
	if crc32.ChecksumIEEE(f.payload) != f.sum {
		return &CorruptError{Offset: f.off, Reason: "frame checksum mismatch"}
	}
	if err := json.Unmarshal(f.payload, rec); err != nil {
		return &CorruptError{Offset: f.off, Reason: "frame payload is not a record: " + err.Error()}
	}
	return nil
}

// scanFrames checks the file header and walks the frame boundaries,
// handing each whole frame to visit. It returns the offset the scan
// stopped at — just past the last frame visit accepted — and why: nil on
// a clean EOF, visit's error, or the *CorruptError of a frame that is
// truncated or claims an implausible length.
func scanFrames(r io.Reader, visit func(frame) error) (int64, error) {
	hdr := make([]byte, len(journalMagic))
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, &CorruptError{Offset: 0, Reason: "missing or truncated header"}
	}
	if !bytes.Equal(hdr, journalMagic) {
		return 0, &CorruptError{Offset: 0, Reason: fmt.Sprintf("bad magic %q", hdr)}
	}
	off := int64(len(journalMagic))
	fh := make([]byte, frameHeaderLen)
	for {
		if _, err := io.ReadFull(r, fh); err != nil {
			if err == io.EOF {
				return off, nil
			}
			return off, &CorruptError{Offset: off, Reason: "truncated frame header"}
		}
		n := binary.LittleEndian.Uint32(fh[0:4])
		if n == 0 || n > maxFrame {
			return off, &CorruptError{Offset: off, Reason: fmt.Sprintf("implausible frame length %d", n)}
		}
		payload, err := readPayload(r, int(n))
		if err != nil {
			return off, &CorruptError{Offset: off, Reason: "truncated frame payload"}
		}
		if err := visit(frame{off: off, sum: binary.LittleEndian.Uint32(fh[4:8]), payload: payload}); err != nil {
			return off, err
		}
		off += int64(frameHeaderLen) + int64(n)
	}
}

// DecodeJournal scans a journal byte stream. It returns every record of
// the longest valid prefix, the offset just past the last valid frame,
// and the corruption that stopped the scan — nil on a clean EOF. Any
// input is safe: a truncated, bit-flipped, or entirely foreign stream
// yields a *CorruptError, never a panic.
func DecodeJournal(r io.Reader) ([]Record, int64, error) {
	var recs []Record
	off, err := scanFrames(r, func(f frame) error {
		var rec Record
		if err := f.decode(&rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	return recs, off, err
}

// DecodeJournalParallel is DecodeJournal with CRC verification and JSON
// unmarshalling fanned out across workers. Framing is inherently serial
// (each frame's offset depends on the previous length prefix), so the
// one scan collects frame boundaries and payloads; the per-frame work —
// the bulk of recovery time — runs in parallel. The contract is
// bit-for-bit DecodeJournal's: the longest valid prefix of records, the
// offset just past the last valid frame, and the corruption that stopped
// the scan. A payload error at frame i wins over any later scan-stop,
// exactly as the serial decoder would have reported it.
func DecodeJournalParallel(r io.Reader, workers int) ([]Record, int64, error) {
	if workers <= 1 {
		return DecodeJournal(r)
	}
	var frames []frame
	off, scanErr := scanFrames(r, func(f frame) error {
		frames = append(frames, f)
		return nil
	})

	recs := make([]Record, len(frames))
	errs := make([]error, len(frames))
	var next int64 // atomically claimed frame index
	var mu sync.Mutex
	var wg sync.WaitGroup
	if workers > len(frames) {
		workers = len(frames)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := int(next)
				next++
				mu.Unlock()
				if i >= len(frames) {
					return
				}
				errs[i] = frames[i].decode(&recs[i])
			}
		}()
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			// Everything before the first bad frame decoded clean; the
			// valid prefix ends where the serial decoder would have stopped.
			return recs[:i], frames[i].off, e
		}
	}
	return recs, off, scanErr
}

// readPayload reads exactly n bytes. Large claims are read
// incrementally so a lying length prefix on a short stream cannot force
// a 64 MiB allocation (this keeps the fuzz target honest too).
func readPayload(r io.Reader, n int) ([]byte, error) {
	if n <= 1<<16 {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
