package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/permit"
	"declnet/internal/topo"
)

// entriesEqual compares two permit entry sets canonically (sorted by
// address then length), sharing no code with addr's canonical-set
// functions: the tests' independent oracle for what production compares
// with slices.Equal.
func entriesEqual(a, b []addr.Prefix) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = sortedEntries(a), sortedEntries(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedEntries(in []addr.Prefix) []addr.Prefix {
	out := append([]addr.Prefix(nil), in...)
	sort.Slice(out, func(i, j int) bool {
		return out[i].Addr < out[j].Addr ||
			(out[i].Addr == out[j].Addr && out[i].Len < out[j].Len)
	})
	return out
}

// within fails the test unless done closes before the deadline — the
// deadlock detector for the lock-scope tests.
func within(t *testing.T, d time.Duration, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not finish within %v", what, d)
	}
}

// async runs fn on its own goroutine and returns a channel closed when
// it returns.
func async(fn func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	return done
}

// sweepWhile sweeps back to back until writing closes, then once more over
// the quiesced world, and returns what the sweeps found in all.
func sweepWhile(r *Reconciler, writing <-chan struct{}) (total SweepResult, sweeps int) {
	for done := false; !done; sweeps++ {
		select {
		case <-writing:
			done = true
		default:
		}
		res := r.RunSweep()
		total.Repaired += res.Repaired
		total.DriftPermits += res.DriftPermits
		total.DriftBinds += res.DriftBinds
		total.DriftQuotas += res.DriftQuotas
		total.Deferred += res.Deferred
	}
	return total, sweeps
}

// sharesEndpoints fails t unless c's declared world is the one l holds —
// the very entries, not copies — and c enforces each endpoint's declared
// permit list as that very slice.
func sharesEndpoints(t *testing.T, c *Cloud, l *intent.Log, when string) {
	t.Helper()
	st := l.State()
	st.Endpoints.Ascend(0, func(eip addr.IP, decl *intent.Endpoint) bool {
		if ep, _ := c.decl.Endpoint(eip); ep != decl {
			t.Errorf("%s: %s's record %p in the cloud is not the declared entry %p", when, eip, ep, decl)
		}
		p, _ := c.blockOwner(eip)
		list, _ := p.Permits.List(eip)
		if got, want := list.Entries(), decl.Permits.Entries(); len(want) > 0 && (len(got) == 0 || &got[0] != &want[0]) {
			t.Errorf("%s: %s's enforced list is not the one its record declares", when, eip)
		}
		return true
	})
	if n := c.decl.Endpoints().Len(); n != st.Endpoints.Len() {
		t.Errorf("%s: %d endpoints in the cloud, %d declared", when, n, st.Endpoints.Len())
	}
}

// checkRestartDigest closes l and requires that a fresh world restored
// from the store at dir digests like the live one and installs the
// store's own endpoint entries.
func checkRestartDigest(t *testing.T, c *Cloud, l *intent.Log, dir string) {
	t.Helper()
	want := c.StateDigest()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	c2, _, _, _, _ := fig1Cloud(t)
	if err := c2.RestoreIntent(l2.State()); err != nil {
		t.Fatal(err)
	}
	if got := c2.StateDigest(); got != want {
		t.Errorf("a world restored from the store digests %s, the live one %s", got, want)
	}
	sharesEndpoints(t, c2, l2, "after RestoreIntent")
}

// churnWorker is one goroutine of TestSweepNeverRevertsMutations. Two
// workers share each tenant — and so its shards — but every worker owns
// the addresses it mutates, so each knows what it was told succeeded.
type churnWorker struct {
	tenant string
	p, far *Provider   // home provider (grants, binds) and the other one
	vm     topo.NodeID // home-region VM, for grants
	eips   [2]addr.IP  // home region, bound to sip on and off
	farEIP addr.IP     // an endpoint on the other provider
	sip    addr.IP
	bound  [2]bool
	flip   bool // name multi-shard batches' shards in the opposite textual order
}

func (cw *churnWorker) step(c *Cloud, rng *rand.Rand) error {
	entries := func() []permit.Entry {
		out := []permit.Entry{addr.NewPrefix(cw.farEIP, 32)}
		for n := rng.Intn(3); n > 0; n-- {
			out = append(out, pfx(fmt.Sprintf("10.%d.0.0/16", rng.Intn(200))))
		}
		return out
	}
	switch rng.Intn(6) {
	case 0:
		return c.Tenant(cw.tenant).SetPermitList(cw.eips[rng.Intn(2)], entries())
	case 1:
		i := rng.Intn(2)
		cw.bound[i] = !cw.bound[i]
		if cw.bound[i] {
			return c.Tenant(cw.tenant).Bind(cw.eips[i], cw.sip, 1+rng.Intn(3))
		}
		// The bind was acknowledged; a sweep reverting it would make
		// this unbind fail.
		return c.Tenant(cw.tenant).Unbind(cw.eips[i], cw.sip)
	case 2:
		// One shard, with back-references: grant, guard, release.
		_, err := c.ApplyBatch(cw.tenant, []BatchOp{
			{Op: "request_eip", VM: cw.vm},
			{Op: "set_permit", Target: "$0", Entries: entries()},
			{Op: "permit", Target: "$0", Entries: []permit.Entry{pfx("192.168.0.0/16")}},
			{Op: "release_eip", EIP: "$0"},
		})
		return err
	case 3:
		// Three shards — home region, home SIP plane, the far provider's
		// region — named in one textual order or the other.
		ops := []BatchOp{
			{Op: "set_permit", Target: cw.farEIP.String(), Entries: entries()},
			{Op: "set_permit", Target: cw.sip.String(), Entries: entries()},
			{Op: "set_permit", Target: cw.eips[0].String(), Entries: entries()},
		}
		if cw.flip {
			ops[0], ops[2] = ops[2], ops[0]
		}
		_, err := c.ApplyBatch(cw.tenant, ops)
		return err
	case 4:
		// Two shards through back-references: a service granted, bound,
		// guarded, drained and released inside one batch.
		ops := []BatchOp{
			{Op: "request_eip", VM: cw.vm},           // $0
			{Op: "request_sip", Provider: cw.p.Name}, // $1
			{Op: "bind", EIP: "$0", SIP: "$1", Weight: 2},
			{Op: "set_permit", Target: "$1", Entries: entries()},
			{Op: "unbind", EIP: "$0", SIP: "$1"},
			{Op: "release_sip", SIP: "$1"},
			{Op: "release_eip", EIP: "$0"},
		}
		if cw.flip {
			ops[0], ops[1] = ops[1], ops[0]
			ops[2] = BatchOp{Op: "bind", EIP: "$1", SIP: "$0", Weight: 2}
			ops[3].Target, ops[4] = "$0", BatchOp{Op: "unbind", EIP: "$1", SIP: "$0"}
			ops[5], ops[6] = BatchOp{Op: "release_sip", SIP: "$0"}, BatchOp{Op: "release_eip", EIP: "$1"}
		}
		_, err := c.ApplyBatch(cw.tenant, ops)
		return err
	default:
		// Cross-shard read; whether the far list admits us right now is
		// not the point, taking both shards beside the writers is.
		c.Tenant(cw.tenant).Probe(cw.eips[0], cw.farEIP)
		return nil
	}
}

// TestSweepNeverRevertsMutations hammers single verbs, single- and
// multi-shard batches and cross-shard probes from several goroutines
// while another sweeps back to back. Nothing injects drift, so a sweep
// must find none: every mismatch it screens is a mutation acknowledged
// since its view, and re-validation under the shard lock dismisses it.
// Before the reconciler re-validated, this reported repairs — each one
// an acknowledged mutation reverted — within a few sweeps. Verbs mark
// nothing, so only the rotation re-screens what a writer just wrote:
// at K=1 every sweep screens every target.
func TestSweepNeverRevertsMutations(t *testing.T) {
	dir := t.TempDir()
	c, w, pa, pb, _ := fig1Cloud(t)
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableIntent(l)
	r, err := c.EnableReconciler(ReconcilerConfig{AntiEntropyK: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Each tenant churns addresses on its own home provider only, so each
	// address pool is allocated from under one shard and the journal
	// replays its cursor exactly (the digest hashes pool cursors).
	homes := []struct {
		tenant  string
		p, far  *Provider
		vm, fvm topo.NodeID
	}{
		{"acme", pa, pb, topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1), topo.HostID(w.CloudB, w.RegionsB[1], "az1", 1)},
		{"globex", pb, pa, topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1), topo.HostID(w.CloudA, w.RegionsA[1], "az1", 1)},
	}
	var workers []*churnWorker
	for i := 0; i < 4; i++ {
		h := homes[i%2]
		cw := &churnWorker{tenant: h.tenant, p: h.p, far: h.far, vm: h.vm, flip: i >= 2}
		for j := range cw.eips {
			if cw.eips[j], err = c.Tenant(h.tenant).RequestEIP(h.vm); err != nil {
				t.Fatal(err)
			}
		}
		if cw.farEIP, err = c.Tenant(h.tenant).RequestEIP(h.fvm); err != nil {
			t.Fatal(err)
		}
		if cw.sip, err = c.Tenant(h.tenant).RequestSIP(h.p.Name); err != nil {
			t.Fatal(err)
		}
		workers = append(workers, cw)
	}

	const steps = 300
	var wg sync.WaitGroup
	for i, cw := range workers {
		wg.Add(1)
		go func(cw *churnWorker, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < steps; n++ {
				if err := cw.step(c, rng); err != nil {
					t.Errorf("%s step %d: %v", cw.tenant, n, err)
					return
				}
			}
		}(cw, int64(i+1))
	}
	mutating := async(wg.Wait)
	var total SweepResult
	sweeps := 0
	sweeping := async(func() { total, sweeps = sweepWhile(r, mutating) })
	within(t, 2*time.Minute, mutating, "the mutators (deadlock?)")
	within(t, 2*time.Minute, sweeping, "the sweeper (deadlock?)")
	if total != (SweepResult{}) {
		t.Errorf("%d sweeps beside %d mutations found drift with none injected: %+v", sweeps, 4*steps, total)
	}

	// Live state == declared state == what a restart rebuilds.
	full := &Reconciler{cloud: c, cfg: ReconcilerConfig{AntiEntropyK: 1}, budget: repairBudget}
	if res := full.RunSweep(); sweepWork(res) != (SweepResult{}) {
		t.Errorf("a K=1 walk of the quiesced world found work: %+v", res)
	}
	checkRestartDigest(t, c, l, dir)
}

// TestSweepSharesEntriesWithTheirWriters is the race test for the shared
// declared entries: the sweep reads a permit list's entries and a
// service's binds from the log's own copy, after the log's lock is
// released, and the read plane reads an endpoint's egress cap from the
// record the log declares, so the verbs that edit an entry must replace
// it, never write into it. Writers issue exactly the five verbs that
// used to edit in place — permit, revoke, bind (a weight update and an
// append), unbind, set_vm_egress — on their own addresses while one
// goroutine sweeps the whole world back to back, another compacts and a
// third connects from and explains the endpoints whose caps change.
// Under -race an in-place permit, revoke, bind or unbind is a reported
// race with the sweep's screen, and an in-place set_vm_egress one with
// Connect's or Explain's read of the cap; with or without it the run
// must end with nothing repaired, no drift counted, and declared ==
// installed == what each writer was told. Every endpoint core installs
// — by a single request_eip, a batched one, set_permit, permit, revoke,
// set_vm_egress or RestoreIntent — is the declared entry itself, and the
// list it declares is the one the engine enforces.
func TestSweepSharesEntriesWithTheirWriters(t *testing.T) {
	dir := t.TempDir()
	c, w, pa, pb, _ := fig1Cloud(t)
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableIntent(l)
	r, err := c.EnableReconciler(ReconcilerConfig{AntiEntropyK: 1})
	if err != nil {
		t.Fatal(err)
	}

	// told is what one writer's acknowledged verbs add up to.
	type told struct {
		p       *Provider
		eips    [2]addr.IP
		sip     addr.IP
		entries map[permit.Entry]bool
		weight  [2]int // 0 = unbound
		egress  float64
	}
	homes := []struct {
		p        *Provider
		vm, sink topo.NodeID
	}{
		{pa, topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1), topo.HostID(w.CloudA, w.RegionsA[0], "az1", 2)},
		{pb, topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1), topo.HostID(w.CloudB, w.RegionsB[0], "az1", 2)},
	}
	writers := make([]*told, 4)
	for i := range writers {
		h := homes[i%2]
		wr := &told{p: h.p, entries: map[permit.Entry]bool{}}
		for j := range wr.eips {
			if wr.eips[j], err = c.Tenant("acme").RequestEIP(h.vm); err != nil {
				t.Fatal(err)
			}
		}
		if wr.sip, err = c.Tenant("acme").RequestSIP(h.p.Name); err != nil {
			t.Fatal(err)
		}
		writers[i] = wr
	}
	// One sink per home, on another host and granted in a batch, admits
	// every writer's first endpoint: the reader connects from those to it.
	sinks := make([]addr.IP, len(homes))
	for i, h := range homes {
		res, err := c.ApplyBatch("acme", []BatchOp{{Op: intent.OpRequestEIP, VM: h.sink}})
		if err != nil {
			t.Fatal(err)
		}
		sinks[i] = res[0].Addr
		var srcs []permit.Entry
		for _, wr := range writers {
			srcs = append(srcs, addr.NewPrefix(wr.eips[0], 32))
		}
		if err := c.Tenant("acme").SetPermitList(sinks[i], srcs); err != nil {
			t.Fatal(err)
		}
	}
	sharesEndpoints(t, c, l, "after request_eip, a batched request_eip and set_permit")

	const steps = 400
	var wg sync.WaitGroup
	for i, wr := range writers {
		wg.Add(1)
		go func(wr *told, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < steps; n++ {
				var err error
				e := pfx(fmt.Sprintf("10.%d.0.0/16", rng.Intn(12)))
				i := rng.Intn(2)
				switch rng.Intn(5) {
				case 0:
					err = c.Tenant("acme").Permit(wr.eips[0], e)
					wr.entries[e] = true
				case 1:
					err = c.Tenant("acme").Revoke(wr.eips[0], e)
					delete(wr.entries, e)
				case 2:
					wr.weight[i] = 1 + rng.Intn(4)
					err = c.Tenant("acme").Bind(wr.eips[i], wr.sip, wr.weight[i])
				case 3:
					if wr.weight[i] == 0 {
						continue
					}
					wr.weight[i] = 0
					err = c.Tenant("acme").Unbind(wr.eips[i], wr.sip)
				case 4:
					wr.egress = float64(1+rng.Intn(9)) * 1e8
					err = c.Tenant("acme").SetVMEgressCap(wr.eips[0], wr.egress)
				}
				if err != nil {
					t.Errorf("step %d: %v", n, err)
					return
				}
			}
		}(wr, int64(i+1))
	}
	writing := async(wg.Wait)
	var total SweepResult
	sweeping := async(func() { total, _ = sweepWhile(r, writing) })
	// Connect and Explain read a source's egress cap under its shard's
	// read lock while set_vm_egress replaces it under the write lock.
	connects := 0
	reading := async(func() {
		for n := 0; ; n++ {
			select {
			case <-writing:
				return
			default:
			}
			wr := writers[n%len(writers)]
			sink := sinks[n%len(homes)]
			if connects < 256 {
				if err := connect(c, "acme", wr.eips[0], sink); err != nil {
					t.Errorf("connect %s -> %s: %v", wr.eips[0], sink, err)
					return
				}
				connects++
			}
			if _, err := c.Tenant("acme").Explain(wr.eips[0], sink); err != nil {
				t.Errorf("explain %s -> %s: %v", wr.eips[0], sink, err)
				return
			}
		}
	})
	compacting := async(func() {
		for {
			if err := l.Compact(); err != nil {
				t.Errorf("Compact beside writers and sweeps: %v", err)
				return
			}
			select {
			case <-writing:
				return
			case <-time.After(time.Millisecond):
			}
		}
	})
	within(t, 2*time.Minute, writing, "the writers (deadlock?)")
	within(t, 2*time.Minute, sweeping, "the sweeper (deadlock?)")
	within(t, 2*time.Minute, compacting, "the compactor (deadlock?)")
	within(t, 2*time.Minute, reading, "the reader (deadlock?)")
	if total != (SweepResult{}) {
		t.Errorf("sweeps beside %d mutations found drift with none injected: %+v", len(writers)*steps, total)
	}
	if res := r.RunSweep(); sweepWork(res) != (SweepResult{}) {
		t.Errorf("a sweep of the quiesced world found work: %+v", res)
	}

	// Declared == what each writer was told; the sweep above found
	// installed == declared for lists and binds, and the restart below
	// covers the egress caps (the digest hashes them).
	st := l.State()
	for i, wr := range writers {
		var want []addr.Prefix
		for e := range wr.entries {
			want = append(want, e)
		}
		ep, _ := st.Endpoints.Get(wr.eips[0])
		got := ep.Permits.Entries()
		if !entriesEqual(got, want) {
			t.Errorf("writer %d: declared entries %v, told %v", i, got, sortedEntries(want))
		}
		weights := [2]int{}
		svc, _ := st.Services.Get(wr.sip)
		for _, b := range svc.Binds {
			for j, eip := range wr.eips {
				if b.EIP == eip {
					weights[j] = b.Weight
				}
			}
		}
		if weights != wr.weight {
			t.Errorf("writer %d: declared bind weights %v, told %v", i, weights, wr.weight)
		}
		if got := ep.EgressCap; got != wr.egress {
			t.Errorf("writer %d: declared egress cap %g, told %g", i, got, wr.egress)
		}
	}
	sharesEndpoints(t, c, l, "after permit, revoke and set_vm_egress")
	checkRestartDigest(t, c, l, dir)
}
