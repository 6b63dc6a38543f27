package intent

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"declnet/internal/addr"
)

// randRecord is a record the codec must carry whole: any verb, and each
// op field, the meta and the
// op list nil, empty or filled at random, with the awkward strings and
// floats of the snapshot tests and the floats encoding/json cannot write.
func randRecord(rng *rand.Rand) Record {
	rec := Record{Seq: rng.Uint64() >> uint(rng.Intn(64)), Tenant: randString(rng)}
	if n := rng.Intn(4) - 1; n >= 0 {
		rec.Meta = make(map[string]string)
		for ; n > 0; n-- {
			rec.Meta[randString(rng)] = randString(rng)
		}
	}
	if n := rng.Intn(5) - 1; n >= 0 {
		rec.Ops = make([]Op, n)
		for i := range rec.Ops {
			rec.Ops[i] = randOp(rng)
		}
	}
	return rec
}

var journalFloats = append([]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}, awkwardFloats...)

func randOp(rng *rand.Rand) Op {
	op := Op{Verb: verbCodes[1+rng.Intn(len(verbCodes)-1)]}
	some := func() bool { return rng.Intn(2) == 0 }
	for _, s := range []*string{&op.VM, &op.Provider, &op.Region, &op.Name, &op.Policy} {
		if some() {
			*s = randString(rng)
		}
	}
	for _, ip := range []*addr.IP{&op.Addr, &op.EIP, &op.SIP, &op.Target} {
		if some() {
			*ip = randAddr(rng)
		}
	}
	if some() {
		op.Weight = rng.Intn(1<<20) - 1<<19
	}
	if some() {
		op.Bps = journalFloats[rng.Intn(len(journalFloats))]
	}
	for _, ip := range randAddrs(rng) {
		op.Entries = append(op.Entries, addr.NewPrefix(ip, rng.Intn(33)))
	}
	if op.Entries == nil && some() {
		op.Entries = []addr.Prefix{}
	}
	op.Members = randAddrs(rng)
	if n := rng.Intn(4) - 1; n >= 0 {
		op.Groups = make([]string, n)
		for i := range op.Groups {
			op.Groups[i] = randString(rng)
		}
	}
	return op
}

// appendFrame appends rec's frame to b as the first frame of a journal
// file, whose tables hold nothing yet.
func appendFrame(b []byte, rec *Record) []byte {
	e := encoder{b: b}
	e.frame(rec)
	return e.b
}

// journalOf is a journal file of recs' frames, written as a log writes
// them: through one writer's tables.
func journalOf(recs ...Record) []byte {
	e := encoder{b: bytes.Clone(journalMagic)}
	for i := range recs {
		e.frame(&recs[i])
	}
	return e.b
}

// share makes recs draw on each other's values as a log's frames do: each
// string, and each set_permit's list, is kept, or is one an earlier op
// used, or an equal copy of one.
func share(rng *rand.Rand, recs []Record) {
	var strs []string
	var lists [][]addr.Prefix
	str := func(s *string) {
		if n := len(strs); n > 0 && rng.Intn(3) == 0 {
			*s = strs[rng.Intn(n)]
		} else if n > 0 && rng.Intn(2) == 0 {
			*s = strings.Clone(strs[rng.Intn(n)])
		}
		strs = append(strs, *s)
	}
	for i := range recs {
		rec := &recs[i]
		str(&rec.Tenant)
		for j := range rec.Ops {
			op := &rec.Ops[j]
			for _, s := range []*string{&op.VM, &op.Provider, &op.Region, &op.Name, &op.Policy} {
				str(s)
			}
			for k := range op.Groups {
				str(&op.Groups[k])
			}
			if op.Verb != OpSetPermit || op.Entries == nil {
				continue
			}
			if n := len(lists); n > 0 && rng.Intn(3) == 0 {
				op.Entries = lists[rng.Intn(n)]
			} else if n > 0 && rng.Intn(2) == 0 {
				op.Entries = append([]addr.Prefix{}, lists[rng.Intn(n)]...)
			}
			lists = append(lists, op.Entries)
		}
	}
}

// checkJournal holds recs to the round trip through one journal file: it
// decodes to records that print the same in Go syntax, which tells nil
// from empty, -0 from 0 and a non-UTF-8 byte from its replacement. Every
// proper prefix of the file decodes to
// the frames it holds whole, stopping cleanly at a frame's end and with a
// *CorruptError at that end anywhere else.
func checkJournal(t *testing.T, recs []Record) {
	t.Helper()
	e := encoder{b: bytes.Clone(journalMagic)}
	ends := []int{len(e.b)}
	want := make([]string, len(recs))
	for i := range recs {
		e.frame(&recs[i])
		ends = append(ends, len(e.b))
		want[i] = fmt.Sprintf("%#v", recs[i])
	}
	journal := e.b
	for cut := 0; cut <= len(journal); cut++ {
		got, off, err := DecodeJournal(bytes.NewReader(journal[:cut]))
		k := 0
		for k+1 < len(ends) && ends[k+1] <= cut {
			k++
		}
		var ce *CorruptError
		switch {
		case len(got) != k || (cut >= ends[0] && off != int64(ends[k])):
			t.Fatalf("cut %d of %d: %d records to offset %d, want %d to %d", cut, len(journal), len(got), off, k, ends[k])
		case cut == ends[k] && err != nil:
			t.Fatalf("cut %d, at a frame's end: %v", cut, err)
		case cut != ends[k] && (!asCorrupt(err, &ce) || ce.Offset != off):
			t.Fatalf("cut %d, inside a frame: error %v, want a *CorruptError at %d", cut, err, off)
		}
		for i := range got {
			if g := fmt.Sprintf("%#v", got[i]); g != want[i] {
				t.Fatalf("cut %d, record %d\n got %s\nwant %s", cut, i, g, want[i])
			}
		}
	}
}

// randJournal is up to eight random records sharing values (share).
func randJournal(rng *rand.Rand) []Record {
	recs := make([]Record, 1+rng.Intn(8))
	for i := range recs {
		recs[i] = randRecord(rng)
	}
	share(rng, recs)
	return recs
}

// FuzzJournalFrame holds the frame codec to a round trip through a whole
// journal file, every prefix of it included, on random records sharing
// strings and lists, with fuzzed strings and floats poured into them.
func FuzzJournalFrame(f *testing.F) {
	f.Add(int64(1), "acme", 1e9)
	f.Add(int64(2), "", 0.0)
	f.Add(int64(3), "\xff ", math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, seed int64, s string, bps float64) {
		rng := rand.New(rand.NewSource(seed))
		recs := randJournal(rng)
		for i := range recs {
			rec := &recs[i]
			rec.Tenant += s
			for i := range rec.Ops {
				rec.Ops[i].Region = s
				rec.Ops[i].Bps = bps
				rec.Ops[i].Groups = append(rec.Ops[i].Groups, s)
			}
			if rec.Meta != nil {
				rec.Meta[s] = s
			}
		}
		checkJournal(t, recs)
	})
}

// TestJournalFrameRoundTrip is FuzzJournalFrame over seeded journals
// without the fuzzer, and the op randRecord is least likely to produce:
// one with no field set.
func TestJournalFrameRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		checkJournal(t, randJournal(rand.New(rand.NewSource(seed))))
	}
	checkJournal(t, []Record{{Ops: []Op{{Verb: OpRequestSIP}}}})
}

// TestRandRecordFillsEveryField keeps the round trip an oracle for fields
// added later, as TestRandStateFillsEveryField does for the snapshot:
// randRecord must set every field of a record and of an op — bar the
// four that never reach a frame — and use every verb. A new Op field
// fails here until randOp fills it, and then the round trip until the
// codec carries it.
func TestRandRecordFillsEveryField(t *testing.T) {
	filled, verbs := map[string]bool{}, map[string]bool{}
	for seed := int64(1); seed <= 40; seed++ {
		rec := randRecord(rand.New(rand.NewSource(seed)))
		markFilled(filled, reflect.ValueOf(rec))
		for _, op := range rec.Ops {
			verbs[op.Verb] = true
		}
	}
	for _, v := range []any{Record{}, Op{}} {
		for _, f := range reflect.VisibleFields(reflect.TypeOf(v)) {
			name := reflect.TypeOf(v).String() + "." + f.Name
			switch f.Name {
			case "Prev", "Next":
				if filled[name] {
					t.Errorf("randOp fills %s, which never reaches a frame", name)
				}
			default:
				if !filled[name] {
					t.Errorf("randRecord never fills %s: the round trip cannot tell whether the codec carries it", name)
				}
			}
		}
	}
	for _, verb := range verbCodes[1:] {
		if !verbs[verb] {
			t.Errorf("randRecord never writes a %s op", verb)
		}
	}
}

// TestFrameEncodeAllocatesNothing: once the log's frame buffer has grown
// and its journal file holds a frame's strings and list, encoding that
// frame allocates nothing. A request_eip of the benchmark's shape takes
// 72 bytes where the file has not yet written its strings (its JSON frame
// took 159), and 24 once it has.
func TestFrameEncodeAllocatesNothing(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	grant := Record{Seq: 4242, Tenant: "tenant-17", Ops: []Op{{Verb: OpRequestEIP,
		VM: "cloudA/a-east/az1/host3", Provider: "cloudA", Region: "a-east", Addr: mustIP(t, "100.64.3.7")}}}
	batch := Record{Seq: 4243, Tenant: "tenant-17", Ops: []Op{grant.Ops[0], {Verb: OpSetPermit, Provider: "cloudA",
		Target: mustIP(t, "100.64.3.7"), Entries: []addr.Prefix{addr.MustParsePrefix("100.64.0.0/16"), addr.MustParsePrefix("100.66.0.9/32")}}}}
	for _, rec := range []*Record{&grant, &batch} {
		l.frames.frame(rec) // the first use: the file's tables take its strings and list
		if n := testing.AllocsPerRun(100, func() { l.frames.b = l.frames.b[:0]; l.frames.frame(rec) }); n != 0 {
			t.Errorf("encoding a %d-op frame allocated %.0f times", len(rec.Ops), n)
		}
	}
	if n := len(appendFrame(nil, &grant)); n > 72 {
		t.Errorf("a request_eip frame opening a file takes %d bytes, want at most 72", n)
	}
	l.frames.b = l.frames.b[:0]
	if l.frames.frame(&grant); len(l.frames.b) > 24 {
		t.Errorf("a request_eip frame whose strings the file holds takes %d bytes, want at most 24", len(l.frames.b))
	}
}

// storeFiles is every file of the store in dir, by name.
func storeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// openRefused holds Open to refusing the store in dir with an error that
// names each of want, and to leaving every file of it as it was.
func openRefused(t *testing.T, dir string, want ...string) {
	t.Helper()
	before := storeFiles(t, dir)
	l, err := Open(dir, Options{})
	if err == nil {
		l.Close()
		t.Fatal("Open accepted the store")
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("Open's error %q does not name %s", err, w)
		}
	}
	if !maps.Equal(storeFiles(t, dir), before) {
		t.Error("Open changed the files of the store it refused")
	}
}

// writeStoreFile writes one file of the store in dir.
func writeStoreFile(t *testing.T, dir, name string, b []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOtherJournalVersionIsRefused: a journal whose whole header names
// another version of the format is no crash debris — a crash while the
// header is written leaves fewer than its 8 bytes — so Open refuses it by
// name and truncates nothing.
func TestOtherJournalVersionIsRefused(t *testing.T) {
	dir := t.TempDir()
	frame := appendFrame(nil, &Record{Seq: 1, Tenant: "acme", Ops: []Op{{Verb: OpSetQoS, Provider: "p", Region: "r", Bps: 1}}})
	writeStoreFile(t, dir, journalName, append([]byte("DNETJNL4"), frame...))
	openRefused(t, dir, `"DNETJNL4"`)
}

// TestDNETJNL1JournalIsRefused: a journal of JSON frames, the format
// before DNETJNL2, is refused by name and with lastUpgrade — on its own,
// and beside the binary snapshot of an upgrade that crashed between its
// snapshot's rename and its journal cut.
func TestDNETJNL1JournalIsRefused(t *testing.T) {
	v1 := []byte("DNETJNL1")
	for _, rec := range []Record{
		{Seq: 1, Meta: map[string]string{"seed": "7"}},
		{Seq: 2, Tenant: "acme", Ops: []Op{{Verb: OpRequestEIP, VM: "vm-1", Provider: "p", Region: "r", Addr: mustIP(t, "10.0.0.1")}}},
	} {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		v1 = binary.LittleEndian.AppendUint32(v1, uint32(len(payload)))
		v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(payload))
		v1 = append(v1, payload...)
	}
	dir := t.TempDir()
	writeStoreFile(t, dir, journalName, v1)
	openRefused(t, dir, `"DNETJNL1"`, lastUpgrade)

	dir = t.TempDir()
	st := NewState()
	st.Seq = 2
	writeSnapshot(t, dir, st)
	writeStoreFile(t, dir, journalName, v1)
	openRefused(t, dir, `"DNETJNL1"`, lastUpgrade)
}

// badLengthJournal is a journal whose second frame, checksummed like any
// other, declares a permit entry of prefix length n.
func badLengthJournal(n int) []byte {
	return journalOf(Record{Seq: 1, Tenant: "acme", Ops: []Op{{Verb: OpRequestEIP, VM: "vm", Provider: "p", Region: "r", Addr: 0x64400001}}},
		Record{Seq: 2, Tenant: "acme", Ops: []Op{{Verb: OpSetPermit, Target: 0x64400001,
			Entries: []addr.Prefix{{Addr: 0x0a000000, Len: n}}}}})
}

// TestJournalPrefixLengthIsRefused: a frame declaring a permit entry
// whose prefix length lies outside 0–32 is a malformed frame, however
// good its checksum: replay stops before it, and Open cuts the journal
// there, keeping the frames before it. The fold refuses such an entry
// too, so no writer journals one.
func TestJournalPrefixLengthIsRefused(t *testing.T) {
	for _, n := range []int{33, -1} {
		l, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		grant := Op{Verb: OpRequestEIP, VM: "vm", Provider: "p", Region: "r", Addr: 0x64400001}
		bad := Op{Verb: OpSetPermit, Target: 0x64400001, Entries: []addr.Prefix{{Addr: 0x0a000000, Len: n}}}
		if l.Record("acme", grant) == 0 || l.Record("acme", bad) != 0 {
			t.Errorf("/%d: the fold took a permit entry replay refuses", n)
		}
		l.Close()

		j := badLengthJournal(n)
		recs, off, err := DecodeJournal(bytes.NewReader(j))
		var ce *CorruptError
		if len(recs) != 1 || !asCorrupt(err, &ce) || !strings.Contains(ce.Reason, fmt.Sprintf("prefix length %d", n)) {
			t.Fatalf("/%d: decoded %d records, error %v; want 1 and the prefix length named", n, len(recs), err)
		}
		dir := t.TempDir()
		writeStoreFile(t, dir, journalName, j)
		l, err = Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		st := l.Stats()
		ep, _ := l.Endpoint(0x64400001)
		l.Close()
		if st.ReplayedRecords != 1 || !st.TailTruncated || ep == nil || ep.Permits != nil {
			t.Errorf("/%d: Open replayed %d records (cut %v), endpoint %+v; want the grant alone, the frame cut", n, st.ReplayedRecords, st.TailTruncated, ep)
		}
		if fi, err := os.Stat(filepath.Join(dir, journalName)); err != nil || fi.Size() != off {
			t.Errorf("/%d: journal not cut to its %d valid bytes: %v", n, off, err)
		}
	}
}
