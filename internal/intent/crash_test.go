// Crash-safety property test: a journal cut at ANY byte offset must
// recover to a serial-oracle prefix of the recorded history — the state
// you get by folding the first k whole frames, for the k the decoder
// reports. Schedules are randomized and Records run concurrently, so
// -race covers the append path too.
package intent

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"declnet/internal/addr"
)

// genSchedule builds nRecs valid mutation records, pre-partitioned into
// one slice per worker so concurrent Records never produce an op that
// fails validation (each worker owns its own addresses and tenant).
func genSchedule(rng *rand.Rand, workers, perWorker int) [][][]Op {
	sched := make([][][]Op, workers)
	for w := 0; w < workers; w++ {
		base := addr.IP(0x0a000000 + uint32(w)<<12)
		sipBase := addr.IP(0xac100000 + uint32(w)<<12)
		var eips, sips []addr.IP
		nextEIP, nextSIP := base+1, sipBase+1
		for i := 0; i < perWorker; i++ {
			var ops []Op
			switch v := rng.Intn(10); {
			case v < 3 || len(eips) == 0:
				ops = append(ops, Op{Verb: OpRequestEIP, VM: fmt.Sprintf("vm-%d-%d", w, i),
					Provider: "p", Region: "r", Addr: nextEIP})
				eips = append(eips, nextEIP)
				nextEIP++
			case v < 4:
				ops = append(ops, Op{Verb: OpRequestSIP, Provider: "p", Addr: nextSIP})
				sips = append(sips, nextSIP)
				nextSIP++
			case v < 6 && len(sips) > 0:
				ops = append(ops, Op{Verb: OpBind, EIP: eips[rng.Intn(len(eips))],
					SIP: sips[rng.Intn(len(sips))], Weight: rng.Intn(4)})
			case v < 8:
				ops = append(ops, Op{Verb: OpSetPermit, Provider: "p", Target: eips[rng.Intn(len(eips))],
					Entries: []addr.Prefix{addr.NewPrefix(addr.IP(rng.Uint32()), 24)}})
			case v == 8:
				ops = append(ops, Op{Verb: OpSetQoS, Provider: "p", Region: "r",
					Bps: float64(1 + rng.Intn(1000))})
			default:
				// A small batch: grant + bind, one atomic frame.
				ops = append(ops,
					Op{Verb: OpRequestEIP, VM: fmt.Sprintf("vm-%d-%d b", w, i),
						Provider: "p", Region: "r", Addr: nextEIP},
					Op{Verb: OpSetVMEgress, EIP: nextEIP, Bps: 42})
				eips = append(eips, nextEIP)
				nextEIP++
			}
			sched[w] = append(sched[w], ops)
		}
	}
	return sched
}

func TestCrashAtEveryOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const workers, perWorker = 4, 10

	// Record the schedule concurrently; the journal's append order IS
	// the serial oracle order.
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched := genSchedule(rng, workers, perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", w)
			for _, ops := range sched[w] {
				l.Record(tenant, ops...)
			}
		}(w)
	}
	wg.Wait()
	if st := l.Stats(); st.AppendErrors != 0 {
		t.Fatalf("schedule produced append errors: %+v", st)
	}
	l.Close()

	journal, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, derr := DecodeJournal(bytes.NewReader(journal))
	if derr != nil {
		t.Fatalf("full journal does not decode clean: %v", derr)
	}
	if len(recs) != workers*perWorker {
		t.Fatalf("journal holds %d records, want %d", len(recs), workers*perWorker)
	}

	// Serial oracle: state after each whole-frame prefix.
	oracle := make([]string, len(recs)+1)
	st := NewState()
	oracle[0] = stateJSON(t, st)
	for i := range recs {
		if err := st.Apply(&recs[i]); err != nil {
			t.Fatalf("oracle apply %d: %v", i, err)
		}
		oracle[i+1] = stateJSON(t, st)
	}

	// Crash at every offset: recovery must land exactly on oracle[k].
	root := t.TempDir()
	for cut := 0; cut <= len(journal); cut++ {
		cdir := filepath.Join(root, fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cdir, journalName), journal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rl, err := Open(cdir, Options{})
		if err != nil {
			t.Fatalf("cut %d: Open failed: %v", cut, err)
		}
		k := rl.Stats().ReplayedRecords
		if k < 0 || k > len(recs) {
			t.Fatalf("cut %d: replayed %d records, outside [0, %d]", cut, k, len(recs))
		}
		if got := stateJSON(t, rl.State()); got != oracle[k] {
			t.Fatalf("cut %d: recovered state is not the serial prefix after %d records\n got %s\nwant %s",
				cut, k, got, oracle[k])
		}
		// A full-length cut must lose nothing.
		if cut == len(journal) && k != len(recs) {
			t.Fatalf("uncut journal replayed only %d of %d records", k, len(recs))
		}
		// The store must accept appends after any crash point.
		if seq := rl.Record("tenant-0", Op{Verb: OpSetQoS, Provider: "p", Region: "r", Bps: 7}); seq == 0 {
			t.Fatalf("cut %d: post-recovery Record rejected", cut)
		}
		rl.Close()
		os.RemoveAll(cdir)
	}
}

// TestCrashDuringCompaction covers the snapshot+journal interaction: a
// cut journal alongside a snapshot recovers to snapshot ∘ prefix.
func TestCrashDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched := genSchedule(rand.New(rand.NewSource(2)), 1, 12)
	for i, ops := range sched[0] {
		l.Record("acme", ops...)
		if i == 5 {
			if err := l.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := stateJSON(t, l.State())
	l.Close()

	// Recovery from snapshot + post-compaction tail.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := stateJSON(t, l2.State()); got != want {
		t.Fatalf("snapshot+tail recovery differs\n got %s\nwant %s", got, want)
	}
	if l2.Stats().ReplayedRecords != 6 {
		t.Fatalf("replayed %d tail records, want 6", l2.Stats().ReplayedRecords)
	}
}

// message is one frame's tenant and ops.
type message struct {
	tenant string
	ops    []Op
}

// reuseFrames is a history whose later frames repeat the strings and
// lists earlier ones defined, and define new ones: list A on targets of
// two tenants, then a tenant, VM, region and list C that only frame 5
// defines, and a list B that frame 6 defines and frame 7 repeats.
func reuseFrames(t *testing.T) []message {
	t.Helper()
	ip := func(s string) addr.IP { return mustIP(t, s) }
	a := []addr.Prefix{addr.MustParsePrefix("10.2.0.0/16"), addr.MustParsePrefix("10.1.0.0/16")}
	b := []addr.Prefix{addr.MustParsePrefix("10.9.0.0/16")}
	c := []addr.Prefix{addr.MustParsePrefix("192.168.0.0/24")}
	grant := func(addr addr.IP, vm, region string) Op {
		return Op{Verb: OpRequestEIP, VM: vm, Provider: "p", Region: region, Addr: addr}
	}
	permit := func(target addr.IP, entries []addr.Prefix) Op {
		return Op{Verb: OpSetPermit, Provider: "p", Target: target, Entries: entries}
	}
	return []message{
		{"t-a", []Op{grant(ip("10.0.0.1"), "vm-1", "r")}},
		{"t-a", []Op{grant(ip("10.0.0.2"), "vm-1", "r"), permit(ip("10.0.0.1"), a)}},
		{"t-b", []Op{grant(ip("10.0.0.3"), "vm-2", "r"), permit(ip("10.0.0.3"), a)}},
		{"t-a", []Op{permit(ip("10.0.0.2"), a), {Verb: OpRequestSIP, Provider: "p", Addr: ip("172.16.0.1")}}},
		{"t-late", []Op{grant(ip("10.0.0.4"), "vm-late", "r-late"), permit(ip("10.0.0.4"), c)}},
		{"t-a", []Op{permit(ip("10.0.0.1"), b), {Verb: OpSetQoS, Provider: "p", Region: "r", Bps: 5}}},
		{"t-a", []Op{permit(ip("10.0.0.2"), b), {Verb: OpBind, EIP: ip("10.0.0.2"), SIP: ip("172.16.0.1"), Weight: 2}}},
	}
}

// reuseAppends are frames appended after a restart that repeat what every
// frame of reuseFrames defined, those a cut took away included.
func reuseAppends(t *testing.T) []message {
	t.Helper()
	frames := reuseFrames(t)
	return []message{
		{"t-late", []Op{{Verb: OpRequestEIP, VM: "vm-late", Provider: "p", Region: "r-late", Addr: mustIP(t, "10.0.0.9")},
			{Verb: OpSetPermit, Provider: "p", Target: mustIP(t, "10.0.0.9"), Entries: frames[4].ops[1].Entries}}},
		{"t-a", []Op{{Verb: OpRequestEIP, VM: "vm-1", Provider: "p", Region: "r", Addr: mustIP(t, "10.0.0.11")},
			{Verb: OpSetPermit, Provider: "p", Target: mustIP(t, "10.0.0.11"), Entries: frames[5].ops[0].Entries}}},
		{"t-b", []Op{{Verb: OpRequestEIP, VM: "vm-2", Provider: "p", Region: "r", Addr: mustIP(t, "10.0.0.10")},
			{Verb: OpSetPermit, Provider: "p", Target: mustIP(t, "10.0.0.10"), Entries: frames[1].ops[1].Entries}}},
	}
}

// TestReopenAppendAfterEveryCut: a journal cut at any byte, reopened,
// appended to with frames that repeat strings and lists — whether the
// frame that defined one survived the cut or not — and reopened again,
// recovers the model: the surviving frames, then the appended ones. So
// does a journal whose last frame checksums but does not decode, after
// defining a string. A writer that numbered its values from anything but
// what the surviving frames defined would write references the file no
// longer resolves, and the second reopen would cut them off.
func TestReopenAppendAfterEveryCut(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range reuseFrames(t) {
		if l.Record(m.tenant, slices.Clone(m.ops)...) == 0 {
			t.Fatalf("Record(%v) rejected", m.ops)
		}
	}
	l.Close()
	journal, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	d, recs, _, err := decodeJournal(bytes.NewReader(journal))
	if err != nil || len(recs) != len(reuseFrames(t)) {
		t.Fatalf("the journal decodes to %d records: %v", len(recs), err)
	}
	// A frame that defines the tenant "ghost" as the file's next string,
	// then names no verb.
	ghost := append(binary.AppendUvarint([]byte{byte(len(recs) + 1)}, uint64(len(d.strs))), 5, 'g', 'h', 'o', 's', 't', 0, 2, 99, 0, 0)
	refused := append(bytes.Clone(journal), rawFrame(ghost)...)

	check := func(name string, file []byte) {
		t.Helper()
		cdir := t.TempDir()
		writeStoreFile(t, cdir, journalName, file)
		rl, err := Open(cdir, Options{})
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		k := rl.Stats().ReplayedRecords
		model := NewState()
		for i := range recs[:k] {
			if err := model.Apply(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range append(reuseAppends(t), message{"ghost", []Op{{Verb: OpSetQoS, Provider: "p", Region: "r", Bps: 9}}}) {
			seq := rl.Record(m.tenant, slices.Clone(m.ops)...)
			if err := model.Apply(&Record{Seq: seq, Tenant: m.tenant, Ops: slices.Clone(m.ops)}); seq == 0 || err != nil {
				t.Fatalf("%s: appending %v: seq %d, model %v", name, m.ops, seq, err)
			}
		}
		rl.Close()
		rl, err = Open(cdir, Options{})
		if err != nil {
			t.Fatalf("%s: second Open: %v", name, err)
		}
		defer rl.Close()
		if st := rl.Stats(); st.TailTruncated || st.ReplayedRecords != k+4 {
			t.Fatalf("%s: the second Open replayed %d records (cut %v), want %d whole", name, st.ReplayedRecords, st.TailTruncated, k+4)
		}
		if got, want := stateJSON(t, rl.State()), stateJSON(t, model); got != want {
			t.Fatalf("%s: reopened after %d surviving frames and the appends\n got %s\nwant %s", name, k, got, want)
		}
	}
	for cut := 0; cut <= len(journal); cut++ {
		check(fmt.Sprintf("cut %d", cut), journal[:cut])
	}
	check("refused frame", refused)
}
