package intent

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"declnet/internal/addr"
)

func mustIP(t testing.TB, s string) addr.IP {
	t.Helper()
	ip, err := addr.ParseIP(s)
	if err != nil {
		t.Fatalf("ParseIP(%q): %v", s, err)
	}
	return ip
}

// sampleOps is a valid mutation history touching every journal surface:
// grants, binds, permits (direct and group-expanded), QoS, potato,
// egress caps, groups, names, and a release.
func sampleOps(t testing.TB) []struct {
	tenant string
	ops    []Op
} {
	t.Helper()
	eip1 := mustIP(t, "10.0.0.1")
	eip2 := mustIP(t, "10.0.0.2")
	sip := mustIP(t, "172.16.0.1")
	return []struct {
		tenant string
		ops    []Op
	}{
		{"acme", []Op{{Verb: OpRequestEIP, VM: "vm-1", Provider: "cloudA", Region: "us-east", Addr: eip1}}},
		{"acme", []Op{{Verb: OpRequestEIP, VM: "vm-2", Provider: "cloudA", Region: "us-east", Addr: eip2}}},
		{"acme", []Op{{Verb: OpRequestSIP, Provider: "cloudA", Addr: sip}}},
		{"acme", []Op{
			{Verb: OpBind, EIP: eip1, SIP: sip, Weight: 2},
			{Verb: OpBind, EIP: eip2, SIP: sip}, // weight clamps to 1
		}},
		{"acme", []Op{{Verb: OpCreateGroup, Name: "web", Members: []addr.IP{eip1, eip2}}}},
		{"acme", []Op{{Verb: OpSetPermit, Provider: "cloudA", Target: eip1,
			Entries: []addr.Prefix{addr.MustParsePrefix("192.168.0.0/24")}, Groups: []string{"web"}}}},
		{"acme", []Op{{Verb: OpPermit, Target: eip2, Entries: []addr.Prefix{addr.MustParsePrefix("192.168.1.7/32")}}}},
		{"acme", []Op{{Verb: OpRevoke, Target: eip2, Entries: []addr.Prefix{addr.MustParsePrefix("192.168.1.7/32")}}}},
		{"acme", []Op{{Verb: OpSetQoS, Provider: "cloudA", Region: "us-east", Bps: 1e9}}},
		{"acme", []Op{{Verb: OpSetPotato, Provider: "cloudA", Policy: "cold"}}},
		{"acme", []Op{{Verb: OpSetVMEgress, EIP: eip1, Bps: 5e8}}},
		{"acme", []Op{{Verb: OpRegisterName, Name: "frontend", Addr: sip}}},
		{"acme", []Op{{Verb: OpUnbind, EIP: eip2, SIP: sip}}},
		{"acme", []Op{{Verb: OpReleaseEIP, Addr: eip2}}},
	}
}

func recordAll(t testing.TB, l *Log) {
	t.Helper()
	for _, m := range sampleOps(t) {
		if seq := l.Record(m.tenant, m.ops...); seq == 0 {
			t.Fatalf("Record(%v) rejected", m.ops)
		}
	}
}

// stateJSON canonicalizes a state for comparison (encoding/json sorts
// map keys, so equal states marshal identically).
func stateJSON(t testing.TB, s *State) string {
	t.Helper()
	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal state: %v", err)
	}
	return string(buf)
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Meta: map[string]string{"seed": "7"}})
	if err != nil {
		t.Fatal(err)
	}
	recordAll(t, l)
	want := stateJSON(t, l.State())
	wantSeq := l.Seq()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := stateJSON(t, l2.State()); got != want {
		t.Errorf("replayed state differs\n got %s\nwant %s", got, want)
	}
	if l2.Seq() != wantSeq {
		t.Errorf("Seq = %d, want %d", l2.Seq(), wantSeq)
	}
	if l2.Meta()["seed"] != "7" {
		t.Errorf("Meta = %v, want seed=7", l2.Meta())
	}
	st := l2.Stats()
	if st.ReplayedRecords == 0 || st.TailTruncated || st.AppendErrors != 0 {
		t.Errorf("unexpected stats after clean reopen: %+v", st)
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recordAll(t, l)
	want := stateJSON(t, l.State())
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Compactions != 1 {
		t.Errorf("Compactions = %d, want 1", l.Stats().Compactions)
	}
	// The journal is now just a header; state must come from the snapshot.
	fi, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(len(journalMagic)) {
		t.Errorf("journal size after compact = %d, want %d", fi.Size(), len(journalMagic))
	}
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := stateJSON(t, l2.State()); got != want {
		t.Errorf("state after compact+reopen differs\n got %s\nwant %s", got, want)
	}
	if l2.Stats().ReplayedRecords != 0 {
		t.Errorf("ReplayedRecords = %d, want 0 (journal was truncated)", l2.Stats().ReplayedRecords)
	}
}

func TestAutoCompact(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{CompactEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recordAll(t, l) // 14 records -> at least 2 automatic compactions
	if c := l.Stats().Compactions; c < 2 {
		t.Errorf("Compactions = %d, want >= 2", c)
	}
}

// TestFailedCompactionRetriesAWindowLater: a compaction that fails — here
// because a directory stands where its temporary file goes — is retried
// CompactEvery records later, not on every append after it, so a failing
// disk does not turn each mutation into a world-sized write under the
// lock. Each attempt is one append error.
func TestFailedCompactionRetriesAWindowLater(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{CompactEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := os.Mkdir(filepath.Join(dir, snapshotName+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		l.Record("acme", Op{Verb: OpSetQoS, Provider: "p", Region: "r", Bps: float64(i + 1)})
	}
	if st := l.Stats(); st.AppendErrors != 5 || st.Compactions != 0 {
		t.Errorf("40 records, compacting every 8 onto a failing disk: %d append errors and %d compactions, want 5 and 0",
			st.AppendErrors, st.Compactions)
	}
}

// TestOpenRemovesStaleTmp: the temporary file of a compaction a crash cut
// short is gone after Open — it is no snapshot, only bytes in the store.
func TestOpenRemovesStaleTmp(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, snapshotName+".tmp")
	if err := os.WriteFile(tmp, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("%s survived Open: %v", filepath.Base(tmp), err)
	}
}

// TestSeqSkip simulates a crash between the snapshot rename and the
// journal truncation: the journal still holds records the snapshot
// already covers. Replay must skip them.
func TestSeqSkip(t *testing.T) {
	dirA := t.TempDir()
	l, err := Open(dirA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recordAll(t, l)
	want := stateJSON(t, l.State())
	wantSeq := l.Seq()
	snap := l.State()
	l.Close()
	journal, err := os.ReadFile(filepath.Join(dirA, journalName))
	if err != nil {
		t.Fatal(err)
	}

	dirB := t.TempDir()
	writeSnapshot(t, dirB, snap)
	if err := os.WriteFile(filepath.Join(dirB, journalName), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dirB, Options{})
	if err != nil {
		t.Fatalf("replaying a snapshot-covered journal: %v", err)
	}
	defer l2.Close()
	if got := stateJSON(t, l2.State()); got != want {
		t.Errorf("state differs after covered replay\n got %s\nwant %s", got, want)
	}
	if l2.Seq() != wantSeq {
		t.Errorf("Seq = %d, want %d", l2.Seq(), wantSeq)
	}
	// The store must keep assigning fresh sequence numbers.
	seq := l2.Record("acme", Op{Verb: OpSetQoS, Provider: "cloudA", Region: "us-east", Bps: 2e9})
	if seq != wantSeq+1 {
		t.Errorf("next Seq = %d, want %d", seq, wantSeq+1)
	}
}

func TestCorruptTailRecovers(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recordAll(t, l)
	l.Close()

	path := filepath.Join(dir, journalName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the last frame's payload: CRC fails, replay
	// must stop at the previous frame.
	buf[len(buf)-3] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("corrupt tail must not fail Open: %v", err)
	}
	st := l2.Stats()
	if !st.TailTruncated {
		t.Error("TailTruncated = false, want true")
	}
	n := len(sampleOps(t))
	if st.ReplayedRecords != n-1 {
		t.Errorf("ReplayedRecords = %d, want %d", st.ReplayedRecords, n-1)
	}
	// Appends land after the cut; the next reopen replays clean.
	if seq := l2.Record("acme", Op{Verb: OpSetQoS, Provider: "cloudA", Region: "us-east", Bps: 3e9}); seq == 0 {
		t.Fatal("Record after tail cut rejected")
	}
	want := stateJSON(t, l2.State())
	l2.Close()
	l3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if got := stateJSON(t, l3.State()); got != want {
		t.Errorf("state after cut+append+reopen differs\n got %s\nwant %s", got, want)
	}
	if l3.Stats().TailTruncated {
		t.Error("second reopen still reports a truncated tail")
	}
}

// TestCorruptSnapshotIsFatal: a snapshot is written whole or not at all,
// so a damaged one is no crash debris and the store refuses to open —
// whichever byte of a binary snapshot is flipped or wherever it is cut,
// and a JSON one that is not JSON.
func TestCorruptSnapshotIsFatal(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt JSON snapshot")
	}

	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	recordAll(t, l)
	good, err := encodeBytes(l.State())
	l.Close()
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	path := filepath.Join(dir, snapshotName)
	refused := func(what string, snapshot []byte) {
		t.Helper()
		if err := os.WriteFile(path, snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
		if l, err := Open(dir, Options{}); err == nil {
			l.Close()
			t.Fatalf("Open accepted a binary snapshot %s", what)
		}
	}
	for i := range good {
		bad := bytes.Clone(good)
		bad[i] ^= 0xff
		refused(fmt.Sprintf("with byte %d of %d flipped", i, len(good)), bad)
		refused(fmt.Sprintf("cut to %d of %d bytes", i, len(good)), good[:i])
	}
	refused("with a byte appended", append(bytes.Clone(good), 0))
}

func TestInvalidOpRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Releasing an endpoint that was never granted cannot replay; the
	// record must not be persisted.
	if seq := l.Record("acme", Op{Verb: OpReleaseEIP, Addr: mustIP(t, "10.9.9.9")}); seq != 0 {
		t.Errorf("invalid op assigned seq %d, want 0", seq)
	}
	st := l.Stats()
	if st.AppendErrors != 1 || st.JournalRecords != 0 {
		t.Errorf("stats = %+v, want 1 append error and 0 journal records", st)
	}
	if l.Seq() != 0 {
		t.Errorf("Seq advanced to %d on a rejected record", l.Seq())
	}
}

func TestRecordAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	l.Record("acme", Op{Verb: OpRequestEIP, VM: "vm-1", Provider: "p", Region: "r", Addr: mustIP(t, "10.0.0.1")})
	if l.Stats().AppendErrors == 0 {
		t.Error("Record after Close did not count an append error")
	}
	if err := l.Compact(); err == nil {
		t.Error("Compact after Close did not error")
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, s := range []string{"none", "always", "interval"} {
		if _, err := ParseSyncPolicy(s); err != nil {
			t.Errorf("ParseSyncPolicy(%q): %v", s, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted a bogus policy")
	}
	// Exercise both fsync paths end to end.
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval} {
		dir := t.TempDir()
		l, err := Open(dir, Options{Sync: p, SyncEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		recordAll(t, l)
		if st := l.Stats(); st.AppendErrors != 0 {
			t.Errorf("policy %v: append errors %d", p, st.AppendErrors)
		}
		l.Close()
	}
}

func TestPoolClaimOutOfOrder(t *testing.T) {
	ps := &PoolState{}
	ps.claim(12) // first claim seeds the cursor
	if ps.Next != 13 {
		t.Fatalf("Next = %d, want 13", ps.Next)
	}
	ps.claim(15) // skip-fill 13, 14
	if ps.Next != 16 || len(ps.Released) != 2 {
		t.Fatalf("after gap claim: Next = %d, Released = %v", ps.Next, ps.Released)
	}
	ps.claim(13) // consumes its skip-fill entry
	ps.claim(14)
	if len(ps.Released) != 0 {
		t.Fatalf("Released = %v, want empty", ps.Released)
	}
	ps.claim(10) // below cursor, already consumed elsewhere: no-op
	if ps.Next != 16 || len(ps.Released) != 0 {
		t.Fatalf("below-cursor claim changed the pool: Next = %d, Released = %v", ps.Next, ps.Released)
	}
	ps.release(13)
	ps.claim(13) // free-list reuse
	if len(ps.Released) != 0 || ps.Next != 16 {
		t.Fatalf("free-list reclaim: Next = %d, Released = %v", ps.Next, ps.Released)
	}
}

// TestReleaseRegrantInversion covers the concurrent-shard hazard: a
// release and a re-grant of the same address can reach the journal in
// inverted order. The re-grant's apply cleans up the old incarnation;
// the late release folds to a no-op.
func TestReleaseRegrantInversion(t *testing.T) {
	eip := addr.IP(0x0a000001)
	sip := addr.IP(0xac100001)
	s := NewState()
	apply := func(seq uint64, tenant string, ops ...Op) {
		t.Helper()
		if err := s.Apply(&Record{Seq: seq, Tenant: tenant, Ops: ops}); err != nil {
			t.Fatalf("apply %d: %v", seq, err)
		}
	}
	apply(1, "alice", Op{Verb: OpRequestEIP, VM: "vm-a", Provider: "p", Region: "r", Addr: eip})
	apply(2, "alice", Op{Verb: OpRequestSIP, Provider: "p", Addr: sip})
	apply(3, "alice", Op{Verb: OpBind, EIP: eip, SIP: sip, Weight: 1})
	apply(4, "alice", Op{Verb: OpPermit, Target: eip, Entries: []addr.Prefix{addr.NewPrefix(sip, 32)}})
	// Inverted order: bob's re-grant journals before alice's release.
	apply(5, "bob", Op{Verb: OpRequestEIP, VM: "vm-b", Provider: "p", Region: "r", Addr: eip})
	apply(6, "alice", Op{Verb: OpReleaseEIP, Addr: eip})

	ep := s.Endpoints[eip]
	if ep == nil || ep.Tenant != "bob" {
		t.Fatalf("endpoint = %+v, want bob's", ep)
	}
	if s.Permits[eip] != nil {
		t.Errorf("stale permit list survived: %+v", s.Permits[eip])
	}
	if svc := s.Services[sip]; len(svc.Binds) != 0 {
		t.Errorf("stale binds survived: %+v", svc.Binds)
	}
	// Same shape for SIPs.
	apply(7, "bob", Op{Verb: OpRequestSIP, Provider: "p", Addr: sip})
	apply(8, "alice", Op{Verb: OpReleaseSIP, Addr: sip})
	if svc := s.Services[sip]; svc == nil || svc.Tenant != "bob" {
		t.Fatalf("service = %+v, want bob's", s.Services[sip])
	}
}

// TestReleaseLeavesGroupsAndNames: a released address leaves its
// tenant's groups and names — in order, under a release/re-grant
// inversion, and when the journal places the release before a group or
// name op core applied first — so neither resolves to the pool's next
// holder.
func TestReleaseLeavesGroupsAndNames(t *testing.T) {
	eip, other, late := addr.IP(0x0a000001), addr.IP(0x0a000002), addr.IP(0x0a000003)
	s := NewState()
	apply := func(seq uint64, tenant string, ops ...Op) {
		t.Helper()
		if err := s.Apply(&Record{Seq: seq, Tenant: tenant, Ops: ops}); err != nil {
			t.Fatalf("apply %d: %v", seq, err)
		}
	}
	grouped := func(seq uint64, a addr.IP) {
		apply(seq, "alice", Op{Verb: OpCreateGroup, Name: "web", Members: []addr.IP{a, other}},
			Op{Verb: OpRegisterName, Name: "db", Addr: a})
	}
	check := func(when string) {
		t.Helper()
		if got := s.Groups[GroupKey("alice", "web")]; !slices.Equal(got, []addr.IP{other}) {
			t.Errorf("%s: group web = %v, want [%v]", when, got, other)
		}
		if ip, ok := s.Names[GroupKey("alice", "db")]; ok {
			t.Errorf("%s: name db still resolves to %v", when, ip)
		}
	}
	apply(1, "alice", Op{Verb: OpRequestEIP, VM: "vm-a", Provider: "p", Region: "r", Addr: eip},
		Op{Verb: OpRequestEIP, VM: "vm-a", Provider: "p", Region: "r", Addr: other})
	grouped(2, eip)
	apply(3, "alice", Op{Verb: OpReleaseEIP, Addr: eip})
	check("after release")

	apply(4, "alice", Op{Verb: OpRequestEIP, VM: "vm-a", Provider: "p", Region: "r", Addr: eip})
	grouped(5, eip)
	apply(6, "bob", Op{Verb: OpRequestEIP, VM: "vm-b", Provider: "p", Region: "r", Addr: eip})
	apply(7, "alice", Op{Verb: OpReleaseEIP, Addr: eip})
	check("after inverted re-grant")

	apply(8, "alice", Op{Verb: OpRequestEIP, VM: "vm-a", Provider: "p", Region: "r", Addr: late})
	apply(9, "alice", Op{Verb: OpReleaseEIP, Addr: late})
	grouped(10, late)
	check("after a release journaled first")
}

// TestProviderScopedGroupsAreErrors: groups have one, tenant-wide
// namespace. A snapshot carrying the retired per-provider section and a
// create_group record naming a provider are both refused.
func TestProviderScopedGroupsAreErrors(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte(`{"seq":1,"prov_groups":{"p|acme|web":[1]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := Open(dir, Options{}); err == nil {
		l.Close()
		t.Error("Open accepted a prov_groups snapshot section")
	}
	rec := &Record{Seq: 1, Tenant: "acme", Ops: []Op{{Verb: OpCreateGroup, Provider: "p", Name: "web"}}}
	if err := NewState().Apply(rec); err == nil {
		t.Error("Apply accepted a provider-scoped create_group")
	}
}

func TestDecodeJournalTrailingGarbage(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(journalMagic)
	frame, err := encodeFrame(&Record{Seq: 1, Tenant: "t", Ops: []Op{{Verb: OpSetQoS, Provider: "p", Bps: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(frame)
	cut := buf.Len()
	buf.WriteString("\x07\x00\x00\x00garbage-without-valid-crc")

	recs, off, derr := DecodeJournal(bytes.NewReader(buf.Bytes()))
	if len(recs) != 1 || off != int64(cut) {
		t.Fatalf("recs = %d, off = %d, want 1 record ending at %d", len(recs), off, cut)
	}
	var ce *CorruptError
	if !asCorrupt(derr, &ce) {
		t.Fatalf("err = %v, want *CorruptError", derr)
	}
	if ce.Offset != int64(cut) {
		t.Errorf("corrupt offset = %d, want %d", ce.Offset, cut)
	}
}

func asCorrupt(err error, target **CorruptError) bool {
	ce, ok := err.(*CorruptError)
	if ok {
		*target = ce
	}
	return ok
}

// TestParseQuotaKey: ParseQuotaKey inverts QuotaKey and rejects anything
// with fewer than three fields.
func TestParseQuotaKey(t *testing.T) {
	p, tn, r, ok := ParseQuotaKey(QuotaKey("cloudA", "acme", "a-east"))
	if !ok || p != "cloudA" || tn != "acme" || r != "a-east" {
		t.Fatalf("round trip = %q %q %q %v", p, tn, r, ok)
	}
	if _, _, r, ok := ParseQuotaKey(QuotaKey("cloudA", "acme", "")); !ok || r != "" {
		t.Fatalf("empty region = %q %v, want \"\" true", r, ok)
	}
	for _, bad := range []string{"", "cloudA", "cloudA|acme"} {
		if _, _, _, ok := ParseQuotaKey(bad); ok {
			t.Errorf("ParseQuotaKey(%q) accepted a malformed key", bad)
		}
	}
}

// TestDeclaredEntriesAreImmutable pins what lets the log share declared
// entries with the reconciler instead of copying them: an entry handed
// out earlier never changes, whichever verb edits its target next —
// including the five that used to edit in place (permit, revoke, bind,
// unbind, set_vm_egress) and the drain a release_eip runs over every
// service — while the log itself moves on; and a State() copy aliases
// nothing but those immutable permit lists.
func TestDeclaredEntriesAreImmutable(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recordAll(t, l)
	eip1, eip3, sip := mustIP(t, "10.0.0.1"), mustIP(t, "10.0.0.3"), mustIP(t, "172.16.0.1")
	if seq := l.Record("acme", Op{Verb: OpRequestEIP, VM: "vm-3", Provider: "cloudA", Region: "us-east", Addr: eip3}); seq == 0 {
		t.Fatal("request_eip rejected")
	}

	// held is every entry the log has handed out so far, with its
	// rendering at the time; the Endpoint has no accessor (nothing outside
	// the log reads one), so the test reaches in for it.
	type handed struct {
		entry any
		was   string
	}
	var held []handed
	render := func(v any) string {
		buf, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	hold := func() (now [3]string) { // the permit list, the service, the endpoint
		pl, _ := l.Permit(eip1)
		svc, _ := l.Service(sip)
		l.mu.Lock()
		ep := l.st.Endpoints[eip1]
		l.mu.Unlock()
		for i, v := range []any{pl, svc, ep} {
			now[i] = render(v)
			held = append(held, handed{v, now[i]})
		}
		return now
	}
	hold()
	for _, step := range []struct {
		op      Op
		changes int // 0 the permit list, 1 the service, 2 the endpoint
	}{
		{Op{Verb: OpPermit, Target: eip1, Entries: []addr.Prefix{addr.MustParsePrefix("192.168.9.0/24")}}, 0},
		{Op{Verb: OpRevoke, Target: eip1, Entries: []addr.Prefix{addr.MustParsePrefix("192.168.0.0/24")}}, 0},
		{Op{Verb: OpBind, EIP: eip1, SIP: sip, Weight: 5}, 1}, // a weight update
		{Op{Verb: OpBind, EIP: eip3, SIP: sip, Weight: 1}, 1}, // an append
		{Op{Verb: OpUnbind, EIP: eip1, SIP: sip}, 1},
		{Op{Verb: OpSetVMEgress, EIP: eip1, Bps: 7e8}, 2},
		{Op{Verb: OpReleaseEIP, Addr: eip3}, 1}, // drains eip3 out of sip
	} {
		before := hold()
		if seq := l.Record("acme", step.op); seq == 0 {
			t.Fatalf("%s rejected", step.op.Verb)
		}
		for _, h := range held {
			if got := render(h.entry); got != h.was {
				t.Fatalf("%s changed an entry handed out earlier:\n was %s\n now %s", step.op.Verb, h.was, got)
			}
		}
		after := hold()
		for i := range after {
			if changed := after[i] != before[i]; changed != (i == step.changes) {
				t.Fatalf("%s: declared entry %d changed=%v (before %s, after %s)", step.op.Verb, i, changed, before[i], after[i])
			}
		}
	}

	v := l.View()
	if again := l.View(); again != v || v.Seq != l.Seq() {
		t.Fatalf("View() with no mutation in between: %+v then %+v at seq %d", v, again, l.Seq())
	}
	if allocs := testing.AllocsPerRun(100, func() { l.View() }); allocs != 0 {
		t.Errorf("View() allocates %v times, want 0", allocs)
	}

	st, want := l.State(), stateJSON(t, l.State())
	if pl, _ := l.Permit(eip1); st.Permits[eip1] != pl {
		t.Error("a State() copy holds a copy of a permit list, not the log's own immutable one")
	}
	delete(st.Permits, eip1)
	st.Services[sip].Tenant = "globex"
	st.Endpoints[eip1].EgressCap = 1
	st.Quotas["probe"] = 1
	if got := stateJSON(t, l.State()); got != want {
		t.Errorf("mutating a State() copy reached the log:\n got %s\nwant %s", got, want)
	}
}
