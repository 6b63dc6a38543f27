package intent

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"declnet/internal/addr"
)

// FuzzJournalDecode is the crash-safety contract of the journal format:
// DecodeJournal over ANY byte stream must return the longest valid
// prefix and a typed *CorruptError (or nil on clean EOF) — never panic,
// never over-read, never return records past the corruption point.
// Folding the returned records into a State must not panic either.
func FuzzJournalDecode(f *testing.F) {
	// A valid two-frame journal as the structured seed.
	var valid bytes.Buffer
	valid.Write(journalMagic)
	seedOps := []Op{
		{Verb: OpRequestEIP, VM: "vm-1", Provider: "p", Region: "r", Addr: addr.IP(0x0a000001)},
		{Verb: OpSetPermit, Provider: "p", Target: addr.IP(0x0a000001),
			Entries: []addr.Prefix{addr.NewPrefix(addr.IP(0xc0a80000), 24)}},
	}
	for i, op := range seedOps {
		frame, err := encodeFrame(&Record{Seq: uint64(i + 1), Tenant: "acme", Ops: []Op{op}})
		if err != nil {
			f.Fatal(err)
		}
		valid.Write(frame)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte("DNETJNL1"))
	f.Add([]byte("NOTAJNL0xxxxxxxx"))
	f.Add(append(append([]byte{}, journalMagic...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))
	f.Add(valid.Bytes()[:valid.Len()-5]) // truncated mid-frame
	flipped := append([]byte{}, valid.Bytes()...)
	flipped[len(flipped)-1] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, off, err := DecodeJournal(bytes.NewReader(data))
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("offset %d out of range [0, %d]", off, len(data))
		}
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("error is %T (%v), want *CorruptError", err, err)
			}
			if ce.Offset != off {
				t.Fatalf("CorruptError.Offset = %d, decode offset = %d", ce.Offset, off)
			}
		}
		// The reported prefix must itself decode clean and identically:
		// this is what Open truncates to and appends after.
		if off >= int64(len(journalMagic)) {
			recs2, off2, err2 := DecodeJournal(bytes.NewReader(data[:off]))
			if err2 != nil {
				t.Fatalf("valid prefix re-decode failed: %v", err2)
			}
			if off2 != off || len(recs2) != len(recs) {
				t.Fatalf("prefix re-decode: %d recs at %d, want %d recs at %d",
					len(recs2), off2, len(recs), off)
			}
		}
		// Replay must tolerate whatever records survive the CRC: apply
		// errors are fine (Open stops there); panics are not.
		st := NewState()
		for i := range recs {
			if err := st.Apply(&recs[i]); err != nil {
				break
			}
		}
	})
}

// FuzzSnapshotEncode holds the snapshot codec to a round trip on fuzzed
// content: strings, floats and entry counts are poured into every section
// of a State, which must decode back from its snapshot and, when
// encoding/json can render it, open from a JSON snapshot to what
// encoding/json decodes that to (checkSnapshotCodec). The strings reach
// keys as well as values and the string table; the address stride moves
// the gaps between addresses across varint widths.
func FuzzSnapshotEncode(f *testing.F) {
	f.Add("acme", "cloudA/a-east/az1/host1", 1e9, 5e8, uint32(0x64400001), uint32(1), uint8(3), uint8(2))
	f.Add("", "", 0.0, 0.0, uint32(0), uint32(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, tenant, vm string, quota, egress float64, first, stride uint32, entries, members uint8) {
		s := NewState()
		s.Seq = uint64(first)<<8 | uint64(entries)
		var group []addr.IP
		for i := 0; i < int(members); i++ {
			group = append(group, addr.IP(first+uint32(i)*stride))
		}
		for i := 0; i < int(entries); i++ {
			ip := addr.IP(first + uint32(i)*stride)
			key := tenant + strconv.Itoa(i)
			s.Endpoints[ip] = &Endpoint{Tenant: tenant, VM: vm, Provider: key, Region: vm, EgressCap: egress * float64(i%3)}
			svc := &Service{Tenant: tenant, Provider: vm}
			pl := &PermitList{Tenant: key}
			for _, m := range group[:i%(len(group)+1)] {
				svc.Binds = append(svc.Binds, Bind{EIP: m, Weight: i})
				pl.Entries = append(pl.Entries, addr.NewPrefix(m, i%33))
			}
			s.Services[ip>>uint(i%32)] = svc
			s.Permits[ip] = pl
			s.Quotas[key] = quota * float64(i)
			s.Potato[key] = vm
			s.Groups[key] = group[:i%(len(group)+1)]
			s.Names[vm+key] = ip
			s.EIPPools[key] = &PoolState{Next: ip, Released: group}
		}
		if entries%2 == 1 {
			s.Meta = map[string]string{tenant: vm, vm: tenant}
			s.Groups[tenant] = nil
			s.Groups[vm] = []addr.IP{}
			s.SIPPools[tenant] = &PoolState{}
		}
		checkSnapshotCodec(t, s)
	})
}

// decodeAllocBound is what decoding n bytes of snapshot may allocate: the
// read buffer, and per input byte at most a presized map slot and a share
// of the entries it holds — every count is bounded by the bytes left.
func decodeAllocBound(n int) uint64 { return 128<<10 + 128*uint64(n) }

// FuzzSnapshotDecode is the crash-safety contract of the snapshot format:
// decodeSnapshot over ANY byte stream returns a state or an error, never
// panics, and allocates no more than the input's size bounds — so a lying
// count or length cannot make Open reserve memory the file does not
// hold. A state it does return is one the encoder can write back.
func FuzzSnapshotDecode(f *testing.F) {
	s := randState(rand.New(rand.NewSource(3)), 6)
	valid, err := encodeBytes(s)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(snapshotMagic)
	f.Add(valid[:len(valid)-5])
	f.Add(valid[:len(valid)/2])
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	// Lying counts, each behind a correct checksum: a meta section, a
	// string and a permit list claiming far more than the file holds.
	for _, lie := range [][]byte{
		binary.AppendUvarint(binary.AppendUvarint(bytes.Clone(snapshotMagic), 1), 1<<40),
		binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(bytes.Clone(snapshotMagic), 1), 1), 1<<30),
		append(bytes.Clone(snapshotMagic), 1, 0, 0, 0, 1, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f),
	} {
		f.Add(binary.LittleEndian.AppendUint32(lie, crc32.ChecksumIEEE(lie)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := decodeBytes(data)
		runtime.ReadMemStats(&after)
		if (s == nil) == (err == nil) {
			t.Fatalf("decode returned state %v and error %v", s != nil, err)
		}
		if allocated, bound := after.TotalAlloc-before.TotalAlloc, decodeAllocBound(len(data)); allocated > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), allocated, bound)
		}
		if s != nil {
			checkSnapshotCodec(t, s)
		}
	})
}
