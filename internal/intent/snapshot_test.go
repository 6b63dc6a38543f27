package intent

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"declnet/internal/addr"
)

// encodeBytes is the encoder under test, into memory.
func encodeBytes(s *State) ([]byte, error) {
	var buf bytes.Buffer
	err := s.encodeSnapshot(&buf)
	return buf.Bytes(), err
}

func decodeBytes(b []byte) (*State, error) {
	return decodeSnapshot(bytes.NewReader(b), int64(len(b)))
}

// writeSnapshot stores s in dir as the snapshot a compaction writes.
func writeSnapshot(t testing.TB, dir string, s *State) {
	t.Helper()
	b, err := encodeBytes(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotName), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkSnapshotCodec holds the codec to a round trip on one state: the
// decoded state encodes to the same bytes again — which also covers the
// NaN and infinite floats encoding/json cannot render — and renders as s
// does whenever encoding/json can render it.
func checkSnapshotCodec(t testing.TB, s *State) {
	t.Helper()
	b, err := encodeBytes(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := decodeBytes(b)
	if err != nil {
		t.Fatalf("decode of a %d-byte encoding: %v", len(b), err)
	}
	if again, _ := encodeBytes(got); !bytes.Equal(again, b) {
		t.Fatalf("the decoded state encodes to %d other bytes than the %d it was decoded from", len(again), len(b))
	}
	rendered, err := json.Marshal(s)
	if err != nil {
		return // a NaN or an infinity: the byte comparison above covers it
	}
	if want, got := string(rendered), stateJSON(t, got); got != want {
		t.Fatalf("round trip\n got %s\nwant %s", got, want)
	}
}

// awkward is what a snapshot string can hold that a codec can get wrong:
// JSON's own escapes, the HTML-sensitive characters, control bytes, the
// two line separators, multi-byte runes, and bytes that are not UTF-8.
var awkward = []string{
	`"`, `\`, "<", ">", "&", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f", "\x7f",
	"\u2028", "\u2029", "é", "日本", "\U0001f600", "\xff", "\xc0\xaf", "\xe2\x80", "|", "/", " ",
}

func randString(rng *rand.Rand) string {
	var b []byte
	for n := rng.Intn(6); n > 0; n-- {
		if rng.Intn(3) == 0 {
			b = append(b, awkward[rng.Intn(len(awkward))]...)
		} else {
			b = append(b, byte('a'+rng.Intn(26)))
		}
	}
	return string(b)
}

// randAddr spreads addresses over every magnitude, so the gaps between
// them take every varint width.
func randAddr(rng *rand.Rand) addr.IP {
	return addr.IP(rng.Uint32() >> uint(rng.Intn(32)))
}

func randAddrs(rng *rand.Rand) []addr.IP {
	switch n := rng.Intn(5); n {
	case 0:
		return nil
	case 1:
		return []addr.IP{}
	default:
		out := make([]addr.IP, n)
		for i := range out {
			out[i] = randAddr(rng)
		}
		return out
	}
}

var awkwardFloats = []float64{0, math.Copysign(0, -1), 1, -1, 5e8, 1.5e21, 1e21, 9.99e20, 1e-7, 1e-6, 9.9e-7,
	-2.5e-9, 1e100, 1e-100, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, 1234567.125}

func randFloat(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return awkwardFloats[rng.Intn(len(awkwardFloats))]
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
}

// randState fills every section with up to n entries. Permit lists and
// strings repeat, as they do in a real world, so the tables are exercised.
func randState(rng *rand.Rand, n int) *State {
	s := NewState()
	s.Seq = rng.Uint64() >> uint(rng.Intn(64))
	if rng.Intn(2) == 0 {
		s.Meta = make(map[string]string)
	}
	for i := rng.Intn(n + 1); i > 0; i-- {
		if s.Meta != nil {
			s.Meta[randString(rng)] = randString(rng)
		}
		s.Quotas[randString(rng)] = randFloat(rng)
		s.Potato[randString(rng)] = randString(rng)
		s.Groups[randString(rng)] = randAddrs(rng)
		s.Names[randString(rng)] = randAddr(rng)
		s.EIPPools[randString(rng)] = &PoolState{Next: randAddr(rng), Released: randAddrs(rng)}
		s.SIPPools[randString(rng)] = &PoolState{Next: randAddr(rng), Released: randAddrs(rng)}
	}
	tenants := []string{randString(rng), randString(rng)}
	var lists [][]addr.Prefix
	for i := rng.Intn(n + 1); i > 0; i-- {
		ep := &Endpoint{Tenant: tenants[rng.Intn(2)], VM: randString(rng), Provider: randString(rng), Region: randString(rng)}
		if rng.Intn(2) == 0 {
			ep.EgressCap = randFloat(rng)
		}
		s.Endpoints[randAddr(rng)] = ep
		svc := &Service{Tenant: tenants[rng.Intn(2)], Provider: randString(rng)}
		for _, eip := range randAddrs(rng) {
			svc.Binds = append(svc.Binds, Bind{EIP: eip, Weight: rng.Intn(9) - 1})
		}
		s.Services[randAddr(rng)] = svc
		pl := &PermitList{Tenant: randString(rng)}
		if len(lists) > 0 && rng.Intn(2) == 0 {
			pl.Entries = lists[rng.Intn(len(lists))]
		} else {
			for _, a := range randAddrs(rng) {
				pl.Entries = append(pl.Entries, addr.NewPrefix(a, rng.Intn(33)))
			}
			lists = append(lists, pl.Entries)
		}
		s.Permits[randAddr(rng)] = pl
	}
	return s
}

// TestSnapshotRoundTrip is the codec's oracle test: over seeded random
// states, with each section emptied in turn, a snapshot decodes to the
// state it was encoded from (checkSnapshotCodec).
func TestSnapshotRoundTrip(t *testing.T) {
	emptied := []func(*State){
		func(c *State) { c.Meta = nil },
		func(c *State) { c.Meta = map[string]string{} },
		func(c *State) { c.Endpoints = nil },
		func(c *State) { c.Services = map[addr.IP]*Service{} },
		func(c *State) { c.Permits = nil },
		func(c *State) { c.Quotas = nil },
		func(c *State) { c.Potato = map[string]string{} },
		func(c *State) { c.Groups = nil },
		func(c *State) { c.Names = nil },
		func(c *State) { c.EIPPools = nil },
		func(c *State) { c.SIPPools = map[string]*PoolState{} },
	}
	checkSnapshotCodec(t, NewState())
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randState(rng, 1+int(seed)%12)
		checkSnapshotCodec(t, s)
		c := *s
		emptied[int(seed)%len(emptied)](&c)
		checkSnapshotCodec(t, &c)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := NewState()
		s.Quotas["q"] = f
		s.Endpoints[1] = &Endpoint{EgressCap: f}
		checkSnapshotCodec(t, s)
	}

	// What Apply never stores, and a snapshot cannot hold.
	for _, store := range []func(*State){
		func(s *State) { s.Endpoints[7] = nil },
		func(s *State) { s.Services[7] = nil },
		func(s *State) { s.Permits[70] = nil },
		func(s *State) { s.SIPPools["p"] = nil },
	} {
		s := NewState()
		store(s)
		if _, err := encodeBytes(s); err == nil {
			t.Errorf("a nil entry encoded: %s", stateJSON(t, s))
		}
	}
}

// TestRandStateFillsEveryField is what keeps the round trip an oracle for
// fields added later: randState must set every field of every type a
// snapshot holds to something other than its zero value, so that a field
// the codec does not carry shows as a round-trip difference. A new field
// fails here until randState fills it, and then in TestSnapshotRoundTrip
// until encodeSnapshot and decodeSnapshot carry it.
func TestRandStateFillsEveryField(t *testing.T) {
	filled := map[string]bool{}
	for seed := int64(1); seed <= 40; seed++ {
		markFilled(filled, reflect.ValueOf(randState(rand.New(rand.NewSource(seed)), 12)))
	}
	for _, v := range []any{State{}, Endpoint{}, Service{}, Bind{}, PermitList{}, PoolState{}, addr.Prefix{}} {
		for _, f := range reflect.VisibleFields(reflect.TypeOf(v)) {
			if name := reflect.TypeOf(v).String() + "." + f.Name; !filled[name] {
				t.Errorf("randState never fills %s: the round trip cannot tell whether the codec carries it", name)
			}
		}
	}
}

// markFilled records in filled, as "type.Field", every struct field
// reachable from v that holds something other than its zero value.
func markFilled(filled map[string]bool, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			markFilled(filled, v.Elem())
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			markFilled(filled, it.Value())
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			markFilled(filled, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).IsZero() {
				filled[v.Type().String()+"."+v.Type().Field(i).Name] = true
			}
			markFilled(filled, v.Field(i))
		}
	}
}

// TestJSONSnapshotIsRefused: a JSON snapshot, the format before
// DNETSNP2, is refused by name and with lastUpgrade, and neither it nor
// the journal beside it is touched.
func TestJSONSnapshotIsRefused(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Meta: map[string]string{"seed": "7"}})
	if err != nil {
		t.Fatal(err)
	}
	recordAll(t, l)
	v1, err := json.Marshal(l.State())
	l.Close()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeStoreFile(t, dir, snapshotName, v1)
	writeStoreFile(t, dir, journalName, journalMagic)
	openRefused(t, dir, "JSON", lastUpgrade)
}

// bigLog declares n endpoints, each guarded by a two-entry permit list
// (the benchmark world's shape), in batches of 500 ops a record.
func bigLog(t testing.TB, n int) *Log {
	t.Helper()
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := mustIP(t, "100.64.0.0")
	entries := []addr.Prefix{addr.MustParsePrefix("100.64.0.0/16"), addr.MustParsePrefix("100.65.0.0/16")}
	for i := 0; i < n; i += 250 {
		var ops []Op
		for j := i; j < min(i+250, n); j++ {
			eip := base + addr.IP(j)
			ops = append(ops,
				Op{Verb: OpRequestEIP, VM: fmt.Sprintf("cloudA/a-east/az1/host%d", j%64), Provider: "cloudA", Region: "a-east", Addr: eip},
				Op{Verb: OpSetPermit, Provider: "cloudA", Target: eip, Entries: entries})
		}
		if seq := l.Record(fmt.Sprintf("tenant-%d", i%7), ops...); seq == 0 {
			t.Fatal("record rejected")
		}
	}
	return l
}

// TestCompactAllocatesNoWorldSizedBuffer is the count behind "a snapshot
// costs what the declaration costs": in bigLog's world an endpoint and its
// permit list take 9 bytes of snapshot — an address gap, four string
// references and a zero egress cap, then a gap and two references — where
// the JSON format spent about 210; and a compaction allocates its write
// buffer, the sort keys and the two small tables, nothing that grows with
// the file.
func TestCompactAllocatesNoWorldSizedBuffer(t *testing.T) {
	const n = 20000
	l := bigLog(t, n)
	defer l.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	fi, err := os.Stat(filepath.Join(l.Dir(), snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("Compact of a %d-byte snapshot allocated %d bytes in %d objects", fi.Size(), allocated, after.Mallocs-before.Mallocs)
	if perEndpoint := float64(fi.Size()) / n; perEndpoint > 10 {
		t.Errorf("snapshot takes %.1f bytes per endpoint, want at most 10", perEndpoint)
	}
	if allocated > 256<<10 {
		t.Errorf("Compact allocated %d bytes, want at most %d", allocated, 256<<10)
	}
}
