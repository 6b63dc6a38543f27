package intent

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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

// checkFrame holds one record to the round trip: its frame decodes to a
// record that prints the same in Go syntax, which tells nil from empty,
// -0 from 0 and a non-UTF-8 byte from its replacement.
func checkFrame(t *testing.T, rec Record) {
	t.Helper()
	frame := appendFrame(nil, &rec)
	got, off, err := DecodeJournal(bytes.NewReader(append(bytes.Clone(journalMagic), frame...)))
	if err != nil || len(got) != 1 || off != int64(len(journalMagic)+len(frame)) {
		t.Fatalf("a %d-byte frame decodes to %d records, offset %d, error %v", len(frame), len(got), off, err)
	}
	if want, got := fmt.Sprintf("%#v", rec), fmt.Sprintf("%#v", got[0]); got != want {
		t.Fatalf("round trip\n got %s\nwant %s", got, want)
	}
}

// FuzzJournalFrame holds the frame codec to a round trip on random records
// with fuzzed strings and floats poured into them.
func FuzzJournalFrame(f *testing.F) {
	f.Add(int64(1), "acme", 1e9)
	f.Add(int64(2), "", 0.0)
	f.Add(int64(3), "\xff ", math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, seed int64, s string, bps float64) {
		rng := rand.New(rand.NewSource(seed))
		rec := randRecord(rng)
		rec.Tenant += s
		for i := range rec.Ops {
			rec.Ops[i].Region = s
			rec.Ops[i].Bps = bps
			rec.Ops[i].Groups = append(rec.Ops[i].Groups, s)
		}
		if rec.Meta != nil {
			rec.Meta[s] = s
		}
		checkFrame(t, rec)
	})
}

// TestJournalFrameRoundTrip is FuzzJournalFrame over seeded records
// without the fuzzer, and the op randRecord is least likely to produce:
// one with no field set.
func TestJournalFrameRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		checkFrame(t, randRecord(rand.New(rand.NewSource(seed))))
	}
	checkFrame(t, Record{Ops: []Op{{Verb: OpRequestSIP}}})
}

// TestRandRecordFillsEveryField keeps the round trip an oracle for fields
// added later, as TestRandStateFillsEveryField does for the snapshot:
// randRecord must set every field of a record and of an op — bar the
// three that never reach a frame — and use every verb. A new Op field
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
			case "Derived", "Prev", "Next":
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

// TestFrameEncodeAllocatesNothing: once the log's frame buffer has grown,
// encoding a frame into it allocates nothing, and a request_eip of the
// benchmark's shape takes 68 bytes where its JSON frame took 159.
func TestFrameEncodeAllocatesNothing(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	grant := Record{Seq: 4242, Tenant: "tenant-17", Ops: []Op{{Verb: OpRequestEIP,
		VM: "cloudA/a-east/az1/host3", Provider: "cloudA", Region: "a-east", Addr: mustIP(t, "100.64.3.7")}}}
	batch := Record{Seq: 4243, Tenant: "tenant-17", Ops: []Op{grant.Ops[0], {Verb: OpSetPermit, Provider: "cloudA",
		Target: mustIP(t, "100.64.3.7"), Entries: []addr.Prefix{addr.MustParsePrefix("100.64.0.0/16")}, Groups: []string{"web"}}}}
	for _, rec := range []*Record{&grant, &batch} {
		l.buf = appendFrame(l.buf[:0], rec)
		if n := testing.AllocsPerRun(100, func() { l.buf = appendFrame(l.buf[:0], rec) }); n != 0 {
			t.Errorf("encoding a %d-op frame allocated %.0f times", len(rec.Ops), n)
		}
	}
	if n := len(appendFrame(nil, &grant)); n > 68 {
		t.Errorf("a request_eip frame takes %d bytes, want at most 68", n)
	}
}

// TestLegacyJournalUpgrades opens a store the JSON-frame build wrote
// (testdata/dnetjnl1: every verb, a world-meta first record, a set_permit
// that still names its groups) and holds the upgrade to it: its frames
// replay to the state that build reached (testdata/dnetjnl1/state.json),
// Open reaches that state, leaves a binary snapshot and a bare
// DNETJNL2 journal, and a second Open reaches the same state — as does
// one after a crash that kept the upgrade's snapshot but not its journal
// cut.
func TestLegacyJournalUpgrades(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "dnetjnl1", journalName))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "dnetjnl1", "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := decodeLegacyJournal(bytes.NewReader(v1))
	ref := NewState()
	for i := range recs {
		if err == nil {
			err = ref.Apply(&recs[i])
		}
	}
	if got := stateJSON(t, ref); err != nil || got != string(want) {
		t.Fatalf("the JSON frames replay (%v) to\n %s\nwant %s", err, got, want)
	}
	dir := t.TempDir()
	journal := filepath.Join(dir, journalName)
	open := func(when string) {
		t.Helper()
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		defer l.Close()
		if got := stateJSON(t, l.State()); got != string(want) {
			t.Fatalf("%s the store opens to\n %s\nwant %s", when, got, want)
		}
		if b, err := os.ReadFile(journal); err != nil || !bytes.Equal(b, journalMagic) {
			t.Fatalf("%s the journal holds %q (%v), want the bare header %q", when, b, err, journalMagic)
		}
		if b, err := os.ReadFile(filepath.Join(dir, snapshotName)); err != nil || !bytes.HasPrefix(b, snapshotMagic) {
			t.Fatalf("%s the snapshot starts %.8q (%v), want %q", when, b, err, snapshotMagic)
		}
	}
	if err := os.WriteFile(journal, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	open("on the first open")
	open("on the second open")
	if err := os.WriteFile(journal, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	open("after a crash between the upgrade's rename and its journal cut")
}
