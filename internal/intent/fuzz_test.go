package intent

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"declnet/internal/addr"
)

// FuzzJournalDecode is the crash-safety contract of the journal format:
// DecodeJournal over ANY byte stream must return the longest valid
// prefix and a typed *CorruptError (or nil on clean EOF) — never panic,
// never over-read, never return records past the corruption point.
// Folding the returned records into a State must not panic either. The
// decoder allocates no more than the snapshot's does for as many bytes
// (decodeAllocBound), so a lying count cannot make Open reserve memory
// the journal does not hold.
func FuzzJournalDecode(f *testing.F) {
	// A valid two-frame journal as the structured seed.
	valid := bytes.NewBuffer(journalOf(
		Record{Seq: 1, Tenant: "acme", Ops: []Op{{Verb: OpRequestEIP, VM: "vm-1", Provider: "p", Region: "r", Addr: addr.IP(0x0a000001)}}},
		Record{Seq: 2, Tenant: "acme", Ops: []Op{{Verb: OpSetPermit, Provider: "p", Target: addr.IP(0x0a000001),
			Entries: []addr.Prefix{addr.NewPrefix(addr.IP(0xc0a80000), 24)}}}}))
	f.Add(valid.Bytes())
	f.Add(badLengthJournal(33))
	f.Add(badLengthJournal(-1))
	f.Add([]byte{})
	f.Add([]byte("DNETJNL1"))
	f.Add([]byte("NOTAJNL0xxxxxxxx"))
	f.Add(append(append([]byte{}, journalMagic...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))
	f.Add(valid.Bytes()[:valid.Len()-5]) // truncated mid-frame
	flipped := append([]byte{}, valid.Bytes()...)
	flipped[len(flipped)-1] ^= 0xff
	f.Add(flipped)
	// References that name no value: the tenant's index 5 in a file that
	// has defined none, and a set_permit's reuse of a string and a list
	// whose defining frame is gone.
	f.Add(append(bytes.Clone(journalMagic), rawFrame([]byte{1, 5, 0, 0})...))
	f.Add(cutDefiningFrame())
	// DNETJNL3 frames under the DNETJNL2 header: no longer read, even to upgrade.
	f.Add(append([]byte("DNETJNL2"), valid.Bytes()[len(journalMagic):]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, off, err := DecodeJournal(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if allocated, bound := after.TotalAlloc-before.TotalAlloc, decodeAllocBound(len(data)); allocated > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), allocated, bound)
		}
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
		checkInterned(t, st)
	})
}

// rawFrame is a frame around payload, whatever it holds.
func rawFrame(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	return append(binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload)), payload...)
}

// cutDefiningFrame is a three-frame journal with its middle frame cut
// out: the third refers to the tenant and the list the second defined.
func cutDefiningFrame() []byte {
	permit := Op{Verb: OpSetPermit, Target: 0x0a000001, Entries: []addr.Prefix{addr.NewPrefix(0xc0a80000, 24)}}
	e := encoder{b: bytes.Clone(journalMagic)}
	e.frame(&Record{Seq: 1, Tenant: "acme", Ops: []Op{{Verb: OpRequestEIP, VM: "vm-1", Provider: "p", Region: "r", Addr: 0x0a000001}}})
	cut := len(e.b)
	e.frame(&Record{Seq: 2, Tenant: "beta", Ops: []Op{permit}})
	second := len(e.b)
	e.frame(&Record{Seq: 3, Tenant: "beta", Ops: []Op{permit}})
	return append(e.b[:cut], e.b[second:]...)
}

// FuzzSnapshotEncode holds the snapshot codec to a round trip on fuzzed
// content: strings, floats and entry counts are poured into every section
// of a State, which must decode back from its snapshot to the same
// rendering and re-encode stably (checkSnapshotCodec). The strings reach
// keys as well as values and the string table; the address stride moves
// the gaps between addresses across varint widths. Placements repeat
// every third endpoint, and permit lists are shared by an endpoint and a
// service or repeated as equal copies; when shared is set the state holds
// them as a fold does, one value per distinct one (holdRecords), else as
// distinct pointers.
func FuzzSnapshotEncode(f *testing.F) {
	f.Add("acme", "cloudA/a-east/az1/host1", 1e9, 5e8, uint32(0x64400001), uint32(1), uint8(3), uint8(2), false)
	f.Add("acme", "cloudA/a-east/az1/host1", 1e9, 5e8, uint32(0x64400001), uint32(1), uint8(9), uint8(2), true)
	f.Add("", "", 0.0, 0.0, uint32(0), uint32(0), uint8(0), uint8(0), false)
	f.Fuzz(func(t *testing.T, tenant, vm string, quota, egress float64, first, stride uint32, entries, members uint8, shared bool) {
		s := NewState()
		s.Seq = uint64(first)<<8 | uint64(entries)
		var group []addr.IP
		for i := 0; i < int(members); i++ {
			group = append(group, addr.IP(first+uint32(i)*stride))
		}
		var prev *addr.PrefixSet
		for i := 0; i < int(entries); i++ {
			ip := addr.IP(first + uint32(i)*stride)
			key := tenant + strconv.Itoa(i)
			ep := &Endpoint{Placement: &Placement{Tenant: tenant, VM: vm, Provider: tenant + strconv.Itoa(i%3), Region: vm}, EgressCap: egress * float64(i%3)}
			svc := &Service{Tenant: tenant, Provider: vm}
			var permits []addr.Prefix
			for _, m := range group[:i%(len(group)+1)] {
				svc.Binds = append(svc.Binds, Bind{EIP: m, Weight: i})
				permits = append(permits, addr.NewPrefix(m, i%33))
			}
			switch {
			case i%4 == 3 && prev != nil:
				ep.Permits = addr.AdoptPrefixSet(slices.Clone(prev.Entries())) // an equal copy
			case permits != nil || i%2 == 0:
				ep.Permits = addr.AdoptPrefixSet(permits)
			}
			if i%3 == 1 {
				svc.Permits = ep.Permits
			}
			prev = ep.Permits
			s.Endpoints.Put(ip, ep)
			s.Services.Put(ip>>uint(i%32), svc)
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
		if shared {
			holdRecords(s)
		}
		checkSnapshotCodec(t, s)
	})
}

// decodeAllocBound is what decoding n bytes of snapshot may allocate: the
// read buffer, and per input byte at most a presized map slot and a share
// of the entries it holds — every count is bounded by the bytes left.
func decodeAllocBound(n int) uint64 { return 128<<10 + 128*uint64(n) }

// sparseState is the costliest shape a snapshot's address sections can
// give the tables they fill: a service alone in each of n /16s, and n
// endpoints 64 addresses apart, each alone on its page.
func sparseState(n int) *State {
	s := NewState()
	for i := 0; i < n; i++ {
		s.Services.Put(addr.IP(i)<<16|0xff00, &Service{Tenant: "a", Provider: "p"})
		s.Endpoints.Put(0xa0000000+addr.IP(i)*64, &Endpoint{Placement: &Placement{Tenant: "a", VM: "v", Provider: "p", Region: "r"}})
	}
	return s
}

// TestSparseSnapshotDecodeStaysInBound: decoding sparseState's snapshot,
// a few bytes per key, allocates within decodeAllocBound. A table that
// gave each /16 a directory of 1 024 page pointers and each page all 64
// of its slots needed ten times the bound here.
func TestSparseSnapshotDecodeStaysInBound(t *testing.T) {
	b, err := encodeBytes(sparseState(4000))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := decodeBytes(b); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if allocated, bound := after.TotalAlloc-before.TotalAlloc, decodeAllocBound(len(b)); allocated > bound {
		t.Fatalf("decoding %d bytes of a sparse snapshot allocated %d, bound %d", len(b), allocated, bound)
	}
}

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
	sparse, err := encodeBytes(sparseState(64))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sparse)
	f.Add([]byte{})
	f.Add(snapshotMagic)
	f.Add(valid[:len(valid)-5])
	f.Add(valid[:len(valid)/2])
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	// Lying counts, each behind a correct checksum: a meta section, a
	// string and a permit list claiming far more than the file holds —
	// inline in an endpoint record, and in the permits section of
	// DNETSNP2, which the decoder refuses by its magic.
	for _, lie := range [][]byte{
		binary.AppendUvarint(binary.AppendUvarint(bytes.Clone(snapshotMagic), 1), 1<<40),
		binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(bytes.Clone(snapshotMagic), 1), 1), 1<<30),
		append(bytes.Clone(snapshotMagic), 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0x7f),
		append([]byte("DNETSNP2"), 1, 0, 0, 0, 1, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f),
	} {
		f.Add(binary.LittleEndian.AppendUint32(lie, crc32.ChecksumIEEE(lie)))
	}
	// Prefix lengths no writer produces, and the DNETSNP2 store Open
	// upgrades.
	for _, n := range []int{33, -1} {
		bad, err := encodeBytes(badLengthState(n))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bad)
	}
	v2, err := os.ReadFile(filepath.Join("testdata", "dnetsnp2", snapshotName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)

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
			checkInterned(t, s)
			checkSnapshotCodec(t, s)
		}
	})
}
