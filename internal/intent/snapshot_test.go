package intent

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"declnet/internal/addr"
)

// streamSnapshot is the encoder under test, into memory.
func streamSnapshot(s *State) ([]byte, error) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	err := s.encodeSnapshot(bw)
	bw.Flush()
	return buf.Bytes(), err
}

// marshalSnapshot is the reference: what compactLocked wrote before the
// encoder was written by hand.
func marshalSnapshot(s *State) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(s)
	return buf.Bytes(), err
}

// checkSnapshotCodec holds both halves of the codec to encoding/json on
// one state: the streamed bytes are the reference encoder's bytes, and
// a store holding them opens to what the reference decoder makes of them.
func checkSnapshotCodec(t testing.TB, s *State) {
	t.Helper()
	want, wantErr := marshalSnapshot(s)
	got, gotErr := streamSnapshot(s)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("streamed encode error %v, encoding/json error %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		from := max(i-60, 0)
		t.Fatalf("streamed snapshot differs from encoding/json's at byte %d:\n got ...%q\nwant ...%q",
			i, got[from:min(i+60, len(got))], want[from:min(i+60, len(want))])
	}
	ref := NewState()
	if err := json.Unmarshal(want, ref); err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName), want, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open of a reference-encoded snapshot: %v", err)
	}
	defer l.Close()
	l.mu.Lock() // not State(): Clone assumes entries Apply could have stored
	opened := stateJSON(t, l.st)
	l.mu.Unlock()
	if reference := stateJSON(t, ref); opened != reference {
		t.Fatalf("snapshot opens to\n %s\nencoding/json decodes it to\n %s", opened, reference)
	}
}

// awkward is what a snapshot string can hold that an encoder can get
// wrong: JSON's own escapes, the HTML-sensitive characters, control bytes
// with and without a short escape, the two line separators encoding/json
// escapes, multi-byte runes, and bytes that are not UTF-8 at all.
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

// randAddr spreads addresses over every decimal width, which is what the
// key order depends on.
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

// randState fills every section with up to n entries.
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
	for i := rng.Intn(n + 1); i > 0; i-- {
		ep := &Endpoint{Tenant: randString(rng), VM: randString(rng), Provider: randString(rng), Region: randString(rng)}
		if rng.Intn(2) == 0 {
			ep.EgressCap = randFloat(rng)
		}
		s.Endpoints[randAddr(rng)] = ep
		svc := &Service{Tenant: randString(rng), Provider: randString(rng)}
		for _, eip := range randAddrs(rng) {
			svc.Binds = append(svc.Binds, Bind{EIP: eip, Weight: rng.Intn(9) - 1})
		}
		s.Services[randAddr(rng)] = svc
		pl := &PermitList{Tenant: randString(rng)}
		for _, a := range randAddrs(rng) {
			pl.Entries = append(pl.Entries, addr.NewPrefix(a, rng.Intn(33)))
		}
		s.Permits[randAddr(rng)] = pl
	}
	return s
}

// TestSnapshotStreamMatchesMarshal is the codec's oracle test: over
// seeded random states the streamed bytes are encoding/json's, byte for
// byte, and a snapshot the previous (reflective) encoder wrote opens to
// the state encoding/json decodes it to.
func TestSnapshotStreamMatchesMarshal(t *testing.T) {
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
		// Each section empty in turn: each is omitted on its own.
		c := *s
		emptied[int(seed)%len(emptied)](&c)
		checkSnapshotCodec(t, &c)
	}

	// What Apply never stores but a snapshot file can hold.
	s := NewState()
	s.Endpoints[7] = nil
	s.Permits[70] = nil
	s.EIPPools["p/r"] = nil
	checkSnapshotCodec(t, s)

	// A value JSON cannot carry fails the encode, as it does in encoding/json.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := NewState()
		s.Quotas["q"] = bad
		if _, err := streamSnapshot(s); err == nil {
			t.Errorf("a %v quota encoded", bad)
		}
		checkSnapshotCodec(t, s)
	}
}

// TestDecimalOrder pins the key order on its own: sorting addresses by
// decimalOrder is sorting their decimal strings, and decimalValue undoes it.
func TestDecimalOrder(t *testing.T) {
	vals := []uint32{0, 1, 9, 10, 11, 19, 99, 100, 101, 109, 110, 999, 1000, 123456789, 1234567890,
		999999999, 1000000000, 4294967295, 4294967290, 429496729, 42949672, 2, 20, 200, 2000000000}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		vals = append(vals, rng.Uint32()>>uint(rng.Intn(32)))
	}
	for _, a := range vals {
		if got := decimalValue(decimalOrder(a)); got != a {
			t.Fatalf("decimalValue(decimalOrder(%d)) = %d", a, got)
		}
		for _, b := range vals[:60] {
			as, bs := fmt.Sprint(a), fmt.Sprint(b)
			if got, want := decimalOrder(a) < decimalOrder(b), as < bs; got != want {
				t.Fatalf("decimalOrder(%d) < decimalOrder(%d) = %v, %q < %q = %v", a, b, got, as, bs, want)
			}
		}
	}
}

// TestSnapshotDecodeTolerates pins the decode half's edges: unknown
// top-level keys are skipped as encoding/json skips them, a null section
// stays an empty one, trailing bytes are ignored, and anything malformed
// — at the top, in a key, or inside one entry — is a corrupt snapshot.
func TestSnapshotDecodeTolerates(t *testing.T) {
	open := func(snapshot string) (*Log, error) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte(snapshot), 0o644); err != nil {
			t.Fatal(err)
		}
		return Open(dir, Options{})
	}
	l, err := open(`{"future":{"a":[1,{"b":null}]},"seq":9,"quotas":null,"names":{"acme|web":7},"also":1}` + "\n\ntrailing")
	if err != nil {
		t.Fatal(err)
	}
	if st := l.State(); st.Seq != 9 || st.Names["acme|web"] != 7 || st.Quotas == nil {
		t.Errorf("decoded %s", stateJSON(t, st))
	}
	l.Record("acme", Op{Verb: OpSetQoS, Provider: "p", Region: "r", Bps: 1}) // the null section is writable
	l.Close()
	for _, bad := range []string{
		``, `[]`, `7`, `{`, `{"seq":}`, `{"seq":"x"}`, `{"seq":1`, `{"seq":1,}`,
		`{"endpoints":[]}`, `{"endpoints":{"x":{}}}`, `{"endpoints":{"-1":{}}}`, `{"endpoints":{"4294967296":{}}}`,
		`{"endpoints":{"1":{"tenant":7}}}`, `{"endpoints":{"1":{"tenant":"a"}`, `{"endpoints":{"1":{"tenant":"a"}}`,
		`{"permits":{"1":{"entries":[{"Addr":"x"}]}}}`, `{"quotas":{"k":"fast"}}`, `{"quotas":{"k":1e999}}`,
	} {
		if l, err := open(bad); err == nil {
			l.Close()
			t.Errorf("snapshot %q opened", bad)
		}
	}
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

// TestCompactAllocatesNoWorldSizedBuffer is the count behind "the
// snapshot encoder streams": compacting 20 000 endpoints allocates the
// 1 MiB bufio buffer and the sort keys and nothing that grows with the
// snapshot's 4 MB — where encoding/json allocated the snapshot several
// times over as its buffer doubled into place, plus a string per key.
func TestCompactAllocatesNoWorldSizedBuffer(t *testing.T) {
	l := bigLog(t, 20000)
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
	if fi.Size() < 3<<20 {
		t.Fatalf("snapshot is %d bytes: too small for the budget below to mean anything", fi.Size())
	}
	if allocated >= 3<<20 {
		t.Errorf("Compact allocated %d bytes, want under %d", allocated, 3<<20)
	}
}
