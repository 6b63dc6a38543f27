package intent

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"declnet/internal/addr"
)

// encodeBytes is the encoder under test, into memory.
func encodeBytes(s *State) ([]byte, error) {
	var buf bytes.Buffer
	n, err := s.encodeSnapshot(&buf)
	if err == nil && n != int64(buf.Len()) {
		err = fmt.Errorf("encodeSnapshot counted %d bytes and wrote %d", n, buf.Len())
	}
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
// snapshot decodes to a state that holds one value per distinct list and
// placement (checkInterned) and renders as s does whenever encoding/json
// can render it; that state's encoding decodes back to one that encodes
// to the same bytes again — which also covers the NaN and infinite floats
// encoding/json cannot render — and when s's records already share one
// value per distinct list and placement, as a fold's do, it is s's own
// encoding. A state built outside a fold may hold equal lists or
// placements as distinct pointers, which its snapshot writes once per
// pointer and the decoder holds as one.
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
	checkInterned(t, got)
	again, _ := encodeBytes(got)
	if shared, _ := sharing(s); shared && !bytes.Equal(again, b) {
		t.Fatalf("the decoded state encodes to %d other bytes than the %d it was decoded from", len(again), len(b))
	}
	if got2, err := decodeBytes(again); err != nil {
		t.Fatalf("decode of the re-encoding: %v", err)
	} else if third, _ := encodeBytes(got2); !bytes.Equal(third, again) {
		t.Fatalf("a decoded state's %d-byte encoding decodes to a state that encodes to %d other bytes", len(again), len(third))
	}
	if _, err := renderState(s); err != nil {
		return // a NaN or an infinity: the byte comparisons above cover it
	}
	if want, got := stateJSON(t, s), stateJSON(t, got); got != want {
		t.Fatalf("round trip\n got %s\nwant %s", got, want)
	}
}

// sharing reports whether s's records hold one value per distinct permit
// list and per distinct placement (shared), and whether any two of its
// records hold equal ones as distinct pointers (split). A fold's state
// is shared and never split.
func sharing(s *State) (shared, split bool) {
	sets, places := map[string]*addr.PrefixSet{}, map[Placement]*Placement{}
	shared = true
	note := func(same bool) {
		shared = shared && same
		split = split || !same
	}
	holdSet := func(set *addr.PrefixSet) {
		if set == nil {
			return
		}
		key := fmt.Sprint(set.Entries())
		if first, ok := sets[key]; ok {
			note(first == set)
		}
		sets[key] = set
	}
	s.Endpoints.Ascend(0, func(_ addr.IP, ep *Endpoint) bool {
		if first, ok := places[*ep.Placement]; ok {
			note(first == ep.Placement)
		}
		places[*ep.Placement] = ep.Placement
		holdSet(ep.Permits)
		return true
	})
	s.Services.Ascend(0, func(_ addr.IP, svc *Service) bool {
		holdSet(svc.Permits)
		return true
	})
	return shared, split
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

// randState fills every section with up to n entries. Permit lists,
// placements and strings repeat, as they do in a real world, so the
// tables are exercised. Half the states hold their records' values as a
// fold does (holdRecords); the others are built outside a fold, where
// equal lists and placements may be distinct pointers.
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
	var lists []*addr.PrefixSet
	// permits is a declared list, or none, drawn so lists repeat: as the
	// same set or as an equal copy.
	permits := func() *addr.PrefixSet {
		switch rng.Intn(5) {
		case 0:
			return nil
		case 1:
			if len(lists) > 0 {
				return lists[rng.Intn(len(lists))]
			}
		case 2:
			if len(lists) > 0 {
				return addr.AdoptPrefixSet(slices.Clone(lists[rng.Intn(len(lists))].Entries()))
			}
		}
		var list []addr.Prefix
		for _, a := range randAddrs(rng) {
			list = append(list, addr.NewPrefix(a, rng.Intn(33)))
		}
		lists = append(lists, addr.AdoptPrefixSet(list))
		return lists[len(lists)-1]
	}
	var places []*Placement
	// placement is drawn the same way: a new one, a repeat or an equal copy.
	placement := func() *Placement {
		switch k := rng.Intn(3); {
		case k == 1 && len(places) > 0:
			return places[rng.Intn(len(places))]
		case k == 2 && len(places) > 0:
			p := *places[rng.Intn(len(places))]
			return &p
		}
		places = append(places, &Placement{Tenant: tenants[rng.Intn(2)], VM: randString(rng), Provider: randString(rng),
			Region: randString(rng)})
		return places[len(places)-1]
	}
	for i := rng.Intn(n + 1); i > 0; i-- {
		ep := &Endpoint{Placement: placement(), Permits: permits()}
		if rng.Intn(2) == 0 {
			ep.EgressCap = randFloat(rng)
		}
		if eip := randAddr(rng); serviceAt(s, eip) == nil {
			s.Endpoints.Put(eip, ep) // an address is an EIP or a SIP, never both
		}
		svc := &Service{Tenant: tenants[rng.Intn(2)], Provider: randString(rng), Permits: permits()}
		for _, eip := range randAddrs(rng) {
			svc.Binds = append(svc.Binds, Bind{EIP: eip, Weight: rng.Intn(9) - 1})
		}
		if sip := randAddr(rng); endpointAt(s, sip) == nil {
			s.Services.Put(sip, svc)
		}
	}
	s.index() // what a fold derives from the sections above
	if rng.Intn(2) == 0 {
		holdRecords(s)
	}
	return s
}

// holdRecords makes s's records hold the values of its tables, as a
// fold's records do.
func holdRecords(s *State) {
	s.Endpoints.Ascend(0, func(_ addr.IP, ep *Endpoint) bool {
		ep.Placement, ep.Permits = s.held.place(*ep.Placement), s.held.hold(ep.Permits)
		return true
	})
	s.Services.Ascend(0, func(_ addr.IP, svc *Service) bool {
		svc.Permits = s.held.hold(svc.Permits)
		return true
	})
}

// checkInterned is the sharing invariant of a State that folds or a
// decode built: any two records whose lists hold equal entries hold one
// *addr.PrefixSet, any two equal placements are one *Placement, and each
// table holds exactly the distinct values the records hold, each counted
// once per record that holds it.
func checkInterned(t testing.TB, s *State) {
	t.Helper()
	sets, places := map[string]*addr.PrefixSet{}, map[Placement]*Placement{}
	setHolders, placeHolders := map[*addr.PrefixSet]int{}, map[*Placement]int{}
	holdSet := func(ip addr.IP, set *addr.PrefixSet) {
		if set == nil {
			return
		}
		var key string
		for _, e := range set.Entries() {
			key += fmt.Sprintf("%d/%d ", uint32(e.Addr), e.Len)
		}
		if first, ok := sets[key]; ok && first != set {
			t.Fatalf("%s holds a second set for the list %s", ip, key)
		}
		sets[key] = set
		setHolders[set]++
	}
	s.Endpoints.Ascend(0, func(ip addr.IP, ep *Endpoint) bool {
		if first, ok := places[*ep.Placement]; ok && first != ep.Placement {
			t.Fatalf("%s holds a second placement for %+v", ip, *ep.Placement)
		}
		places[*ep.Placement] = ep.Placement
		placeHolders[ep.Placement]++
		holdSet(ip, ep.Permits)
		return true
	})
	s.Services.Ascend(0, func(ip addr.IP, svc *Service) bool {
		holdSet(ip, svc.Permits)
		return true
	})
	if n, p := s.Interned(); n != len(setHolders) || p != len(placeHolders) {
		t.Fatalf("the tables hold %d sets and %d placements; the records hold %d and %d", n, p, len(setHolders), len(placeHolders))
	}
	for _, h := range s.held.sets {
		if setHolders[h.set] != h.n {
			t.Fatalf("the set %v is counted %d times; %d records hold it", h.set.Entries(), h.n, setHolders[h.set])
		}
	}
	for _, h := range s.held.places {
		if placeHolders[h.p] != h.n {
			t.Fatalf("the placement %+v is counted %d times; %d records hold it", *h.p, h.n, placeHolders[h.p])
		}
	}
}

// TestSnapshotRoundTrip is the codec's oracle test: over seeded random
// states, with each section emptied in turn, a snapshot decodes to the
// state it was encoded from (checkSnapshotCodec).
func TestSnapshotRoundTrip(t *testing.T) {
	emptied := []func(*State){
		func(c *State) { c.Meta = nil },
		func(c *State) { c.Meta = map[string]string{} },
		func(c *State) { c.Endpoints = new(addr.Table[*Endpoint]) },
		func(c *State) { c.Services = new(addr.Table[*Service]) },
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
		s.Endpoints.Put(1, &Endpoint{Placement: &Placement{}, EgressCap: f})
		checkSnapshotCodec(t, s)
	}

	// What Apply never stores, and a snapshot cannot hold.
	for _, store := range []func(*State){
		func(s *State) { s.Endpoints.Put(7, nil) },
		func(s *State) { s.Services.Put(7, nil) },
		func(s *State) { s.SIPPools["p"] = nil },
	} {
		s := NewState()
		store(s)
		if _, err := encodeBytes(s); err == nil {
			t.Errorf("a nil entry encoded: %s", stateJSON(t, s))
		}
	}
}

// TestOrderedWalkEncodesLikeSortedKeys: the snapshot's address-keyed
// sections walk the tables in address order, where the format used to
// sort the keys of maps. A state built through shuffled grants, permits,
// binds and releases over six /16s — three of them in one stripe, put
// there out of address order — encodes to exactly the bytes of a
// reference encoder that copies each table into a map, in stripe order,
// and sorts the map's keys.
func TestOrderedWalkEncodesLikeSortedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// Stripes 0, 1, 0, 63, 0, 2: 0x68000000 and 0x0a000000 join 0x64400000's.
	blocks := []addr.IP{0x64400000, 0x64410000, 0x68000000, 0x647f0000, 0x0a000000, 0x64420000}
	var eips, sips []addr.IP
	for _, b := range blocks[:4] {
		for _, k := range rng.Perm(300) {
			eips = append(eips, b+addr.IP(k*37%1024)) // across page boundaries
		}
	}
	for _, b := range blocks[4:] {
		for _, k := range rng.Perm(40) {
			sips = append(sips, b+addr.IP(k*97))
		}
	}
	rng.Shuffle(len(eips), func(i, j int) { eips[i], eips[j] = eips[j], eips[i] })
	rng.Shuffle(len(sips), func(i, j int) { sips[i], sips[j] = sips[j], sips[i] })
	lists := [][]addr.Prefix{
		{addr.MustParsePrefix("100.64.0.0/16"), addr.MustParsePrefix("100.65.0.0/16")},
		{addr.MustParsePrefix("10.0.0.0/8")},
		nil,
	}
	s := NewState()
	seq := uint64(0)
	apply := func(tenant string, ops ...Op) {
		t.Helper()
		seq++
		if err := s.Apply(&Record{Seq: seq, Tenant: tenant, Ops: ops}); err != nil {
			t.Fatal(err)
		}
	}
	tenantOf := func(a addr.IP) string { return fmt.Sprintf("t%d", a%3) }
	for _, sip := range sips {
		apply(tenantOf(sip), Op{Verb: OpRequestSIP, Provider: fmt.Sprintf("p%d", sip>>16), Addr: sip}) // a pool per block
		if rng.Intn(2) == 0 {
			apply(tenantOf(sip), Op{Verb: OpSetPermit, Target: sip, Entries: lists[rng.Intn(len(lists))]})
		}
	}
	for i, eip := range eips {
		tenant := tenantOf(eip)
		apply(tenant, Op{Verb: OpRequestEIP, VM: "vm", Provider: "p", Region: fmt.Sprintf("r%d", eip>>16), Addr: eip})
		if i%4 != 0 {
			apply(tenant, Op{Verb: OpSetPermit, Target: eip, Entries: lists[rng.Intn(len(lists))]})
		}
		if i%5 == 0 {
			sip := sips[rng.Intn(len(sips))]
			if tenantOf(sip) == tenant {
				apply(tenant, Op{Verb: OpBind, EIP: eip, SIP: sip, Weight: 1 + i%3})
			}
		}
	}
	for _, eip := range eips[:len(eips)/3] {
		apply(tenantOf(eip), Op{Verb: OpReleaseEIP, Addr: eip})
	}
	for _, sip := range sips[:len(sips)/4] {
		apply(tenantOf(sip), Op{Verb: OpReleaseSIP, Addr: sip})
	}

	got, err := encodeBytes(s)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceSnapshot(s); !bytes.Equal(got, want) {
		t.Fatalf("the ordered walk encodes %d bytes that differ from the %d of the sorted-keys reference", len(got), len(want))
	}
}

// referenceSnapshot is encodeSnapshot as it was over maps: each table is
// copied into a map in stripe order, and each section sorts its keys.
func referenceSnapshot(s *State) []byte {
	eps, svcs := map[addr.IP]*Endpoint{}, map[addr.IP]*Service{}
	for _, ip := range s.Endpoints.PhaseKeys(0, 1) {
		eps[ip], _ = s.Endpoints.Get(ip)
	}
	for _, ip := range s.Services.PhaseKeys(0, 1) {
		svcs[ip], _ = s.Services.Get(ip)
	}
	var buf bytes.Buffer
	e := &encoder{w: &buf}
	e.b = append(e.b, snapshotMagic...)
	e.uvarint(s.Seq)
	stringSection(e, s.Meta, e.text)
	section := func(keys []addr.IP, value func(addr.IP)) {
		slices.Sort(keys)
		e.uvarint(uint64(len(keys)))
		var prev addr.IP
		for _, ip := range keys {
			e.uvarint(uint64(ip - prev))
			prev = ip
			value(ip)
		}
	}
	var epKeys, svcKeys []addr.IP
	for ip := range eps {
		epKeys = append(epKeys, ip)
	}
	for ip := range svcs {
		svcKeys = append(svcKeys, ip)
	}
	section(epKeys, func(ip addr.IP) { e.endpoint(eps[ip]) })
	section(svcKeys, func(ip addr.IP) { e.service(svcs[ip]) })
	stringSection(e, s.Quotas, e.float)
	stringSection(e, s.Potato, e.text)
	stringSection(e, s.Groups, e.addrs)
	stringSection(e, s.Names, e.addr)
	stringSection(e, s.EIPPools, func(ps *PoolState) { some(e, ps, e.pool) })
	stringSection(e, s.SIPPools, func(ps *PoolState) { some(e, ps, e.pool) })
	e.spill(0)
	e.b = binary.LittleEndian.AppendUint32(e.b, e.sum)
	e.spill(0)
	return buf.Bytes()
}

// TestRandStateFillsEveryField is what keeps the round trip an oracle for
// fields added later: randState must set every field of every type a
// snapshot holds to something other than its zero value, so that a field
// the codec does not carry shows as a round-trip difference. A new field
// fails here until randState fills it, and then in TestSnapshotRoundTrip
// until encodeSnapshot and decodeSnapshot carry it.
func TestRandStateFillsEveryField(t *testing.T) {
	filled := map[string]bool{}
	var shared, split int // states of each kind with a repeated value
	for seed := int64(1); seed <= 40; seed++ {
		s := randState(rand.New(rand.NewSource(seed)), 12)
		markFilled(filled, reflect.ValueOf(s))
		if ok, apart := sharing(s); apart {
			split++
		} else if ok && s.Endpoints.Len() > 1 {
			shared++
		}
	}
	for _, v := range []any{State{}, Endpoint{}, Placement{}, Service{}, Bind{}, PoolState{}, addr.Prefix{}} {
		for _, f := range reflect.VisibleFields(reflect.TypeOf(v)) {
			if len(f.Index) > 1 {
				continue // promoted from an embedded type, which the list checks as its own
			}
			if name := reflect.TypeOf(v).String() + "." + f.Name; !filled[name] {
				t.Errorf("randState never fills %s: the round trip cannot tell whether the codec carries it", name)
			}
		}
	}
	// The snapshot writes a placement and a list once per pointer: the
	// round trip must see states whose records share them, as a fold's
	// do, and states holding equal ones as distinct pointers.
	if shared == 0 || split == 0 {
		t.Errorf("of 40 random states, %d share every repeated list and placement and %d hold equal ones apart; want some of each", shared, split)
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
	case reflect.Slice, reflect.Array:
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
// permit list take under 5 bytes of snapshot — an address gap, a
// reference into the table of its 448 placements (two bytes past the
// 128th), a zero egress cap and a reference to its list (~4.9 measured),
// where the format with a permits section spent 9 and the JSON format
// about 210; and a compaction allocates its write buffer and the small
// tables, nothing that grows with the file.
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
	if perEndpoint := float64(fi.Size()) / n; perEndpoint > 5 {
		t.Errorf("snapshot takes %.2f bytes per endpoint, want at most 5", perEndpoint)
	}
	if allocated > 256<<10 {
		t.Errorf("Compact allocated %d bytes, want at most %d", allocated, 256<<10)
	}
}

// badLengthState is a state built outside a fold whose one endpoint
// declares a permit entry of prefix length n: what a snapshot written by
// no writer of the store holds when n is outside 0–32.
func badLengthState(n int) *State {
	s := NewState()
	s.Endpoints.Put(0x64400001, &Endpoint{Placement: &Placement{Tenant: "acme", VM: "vm", Provider: "p", Region: "r"},
		Permits: addr.AdoptPrefixSet([]addr.Prefix{{Addr: 0x0a000000, Len: n}})})
	return s
}

// TestSnapshotPrefixLengthIsRefused: a snapshot holding a permit entry
// whose prefix length lies outside 0–32 — which no fold stores, and which
// a restored set would match nothing with — fails to decode, and Open
// refuses the store; lengths 0 and 32 decode.
func TestSnapshotPrefixLengthIsRefused(t *testing.T) {
	for _, n := range []int{0, 32} {
		b, err := encodeBytes(badLengthState(n))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeBytes(b); err != nil {
			t.Errorf("a /%d entry: %v", n, err)
		}
	}
	for _, n := range []int{33, 40, -1, -3} {
		dir := t.TempDir()
		writeSnapshot(t, dir, badLengthState(n))
		openRefused(t, dir, fmt.Sprintf("prefix length %d", n))
	}
}

// TestOtherSnapshotVersionIsRefused: a snapshot whose whole header names
// a version of the format other than DNETSNP3 and the DNETSNP2 Open
// upgrades is refused by name, and no file of the store is touched.
func TestOtherSnapshotVersionIsRefused(t *testing.T) {
	b, err := encodeBytes(badLengthState(24))
	if err != nil {
		t.Fatal(err)
	}
	for _, magic := range []string{"DNETSNP1", "DNETSNP4"} {
		dir := t.TempDir()
		writeStoreFile(t, dir, snapshotName, append([]byte(magic), b[len(snapshotMagic):]...))
		openRefused(t, dir, fmt.Sprintf("%q", magic))
	}
}
