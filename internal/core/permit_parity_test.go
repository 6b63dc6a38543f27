package core

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/permit"
	"declnet/internal/topo"
)

// sameSlice reports whether a and b are one slice: the same length over
// the same array.
func sameSlice(a, b []addr.Prefix) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// shareArray reports whether a's and b's arrays overlap anywhere up to
// their capacities — where an append into one's spare capacity would
// write under the other.
func shareArray(a, b []addr.Prefix) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(addr.Prefix{})
	lo, hi := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return lo < hi+uintptr(cap(b))*size && hi < lo+uintptr(cap(a))*size
}

// TestDeclaredAndInstalledPermitParity drives random set_permit / permit
// / revoke ops — repeated entries, nested prefixes, groups whose
// members overlap and span providers — through Cloud.Apply
// with a journal attached, while an endpoint's node fails and heals now
// and then, so updates to it defer until the node answers. Each verb
// derives its target's list once and both stores keep it, so after every
// op declared (intent.State) equals a model that shares no code with
// either, installed (permit.Engine) is declared's very slice unless an
// update to the target is still deferred, the two never hold different
// views of one array, and a sweep finds nothing. Halfway, the world
// restarts from a snapshot in which several targets declare one list:
// recovery hands those targets, in both stores, one slice with no spare
// capacity, and the ops after it permit and revoke on them while the model
// checks that every other target's entries stay as they were.
func TestDeclaredAndInstalledPermitParity(t *testing.T) {
	c, w, pa, pb, _ := fig1Cloud(t)
	m := c.EnableFaults(FaultPolicy{})
	dir := t.TempDir()
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { l.Close() }()
	c.EnableIntent(l)
	r, err := c.EnableReconciler(ReconcilerConfig{})
	if err != nil {
		t.Fatal(err)
	}

	apply := func(op intent.Op) addr.IP {
		t.Helper()
		a, err := c.Apply("acme", op)
		if err != nil {
			t.Fatalf("%s: %v", op.Verb, err)
		}
		return a
	}
	// Group members must be EIPs; a group may span providers.
	eips := map[string][]addr.IP{}
	for i := 1; i <= 2; i++ {
		eips[pa.Name] = append(eips[pa.Name],
			apply(intent.Op{Verb: intent.OpRequestEIP, VM: string(topo.HostID(w.CloudA, w.RegionsA[0], "az1", i))}),
			apply(intent.Op{Verb: intent.OpRequestEIP, VM: string(topo.HostID(w.CloudA, w.RegionsA[1], "az1", i))}))
		eips[pb.Name] = append(eips[pb.Name],
			apply(intent.Op{Verb: intent.OpRequestEIP, VM: string(topo.HostID(w.CloudB, w.RegionsB[0], "az1", i))}))
	}
	eips[""] = slices.Concat(eips[pa.Name], eips[pb.Name])
	targets := append(slices.Clone(eips[""]),
		apply(intent.Op{Verb: intent.OpRequestSIP, Provider: pa.Name}),
		apply(intent.Op{Verb: intent.OpRequestSIP, Provider: pb.Name}))

	// The group table as the model sees it.
	rng := rand.New(rand.NewSource(24))
	groupNames := []string{"web", "fleet"}
	groups := map[string][]addr.IP{}
	regroup := func() {
		name := groupNames[rng.Intn(len(groupNames))]
		members := make([]addr.IP, 1+rng.Intn(4))
		for i := range members {
			members[i] = eips[""][rng.Intn(len(eips[""]))] // may repeat
		}
		groups[name] = members
		apply(intent.Op{Verb: intent.OpCreateGroup, Name: name, Members: members})
	}
	for _, name := range groupNames { // every reference resolves from the start
		groups[name] = []addr.IP{targets[0]}
		apply(intent.Op{Verb: intent.OpCreateGroup, Name: name, Members: groups[name]})
	}

	pool := []addr.Prefix{pfx("0.0.0.0/0"), pfx("100.64.0.0/10"), pfx("100.64.0.0/16"), pfx("100.64.0.0/32"), pfx("10.0.0.0/8")}
	for _, a := range targets {
		pool = append(pool, addr.NewPrefix(a, 32), addr.NewPrefix(a, 24))
	}
	entries := func(n int) []addr.Prefix {
		out := make([]addr.Prefix, n)
		for i := range out {
			out[i] = pool[rng.Intn(len(pool))] // may repeat
		}
		return out
	}

	model := map[addr.IP]map[addr.Prefix]bool{}
	check := func(step int) {
		t.Helper()
		for _, tg := range targets {
			p, _ := c.ProviderOf(tg)
			installed := p.Permits.EntriesOf(tg)
			var declared []addr.Prefix
			if pl, ok := l.Permit(tg); ok {
				declared = pl.Entries
			}
			var want []addr.Prefix
			for e := range model[tg] {
				want = append(want, e)
			}
			if !entriesEqual(declared, want) {
				t.Fatalf("step %d, target %s: declared %v, the model holds %v", step, tg, declared, sortedEntries(want))
			}
			if !slices.IsSortedFunc(declared, addr.ComparePrefix) {
				t.Fatalf("step %d, target %s: declared %v is not canonical", step, tg, declared)
			}
			if shareArray(installed, declared) && !sameSlice(installed, declared) {
				t.Fatalf("step %d, target %s: installed %v and declared %v are different views of one array", step, tg, installed, declared)
			}
			if _, pending := m.PendingPermit(tg); pending {
				continue
			}
			if !sameSlice(installed, declared) {
				t.Fatalf("step %d, target %s: installed %v is not declared's slice %v", step, tg, installed, declared)
			}
		}
	}
	var retries uint64 // deferred updates before the restart
	restart := func(step int) {
		shared := append(entries(3), pool[0]) // a repeat: the lists declared now have spare capacity
		for _, tg := range targets[:5] {
			apply(intent.Op{Verb: intent.OpSetPermit, Target: tg, Entries: shared})
			model[tg] = map[addr.Prefix]bool{}
			for _, e := range shared {
				model[tg][e] = true
			}
		}
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if l, err = intent.Open(dir, intent.Options{}); err != nil {
			t.Fatal(err)
		}
		retries += m.PermitRetries
		c, _, _, _, _ = fig1Cloud(t)
		m = c.EnableFaults(FaultPolicy{})
		if err := c.RestoreIntent(l.State()); err != nil {
			t.Fatal(err)
		}
		c.EnableIntent(l)
		if r, err = c.EnableReconciler(ReconcilerConfig{}); err != nil {
			t.Fatal(err)
		}
		first, _ := l.Permit(targets[0])
		for _, tg := range targets[:5] {
			if pl, _ := l.Permit(tg); !sameSlice(pl.Entries, first.Entries) || cap(pl.Entries) != len(pl.Entries) {
				t.Fatalf("recovered %s declares %v (cap %d), not the one clipped slice %v its equals share",
					tg, pl.Entries, cap(pl.Entries), first.Entries)
			}
		}
		// Two entries that sort last, each appended to one holder of the
		// shared list — into its spare capacity, were there any — and a
		// revoke from a third.
		for i, e := range []addr.Prefix{pfx("255.255.255.255/32"), pfx("255.255.255.254/32")} {
			apply(intent.Op{Verb: intent.OpPermit, Target: targets[i], Entries: []addr.Prefix{e}})
			model[targets[i]][e] = true
		}
		apply(intent.Op{Verb: intent.OpRevoke, Target: targets[2], Entries: shared[:1]})
		delete(model[targets[2]], shared[0])
		check(step)
	}
	var down topo.NodeID // the failed node, "" when none is
	restarted := false
	for step := 0; step < 600; step++ {
		if step >= 300 && !restarted && down == "" {
			restart(step)
			restarted = true
		}
		target := targets[rng.Intn(len(targets))]
		switch rng.Intn(8) {
		case 0:
			regroup()
			continue
		case 1, 2:
			op := intent.Op{Verb: intent.OpSetPermit, Target: target, Entries: entries(rng.Intn(6))}
			want := map[addr.Prefix]bool{}
			for _, e := range op.Entries {
				want[e] = true
			}
			for _, g := range groupNames {
				if rng.Intn(2) == 0 {
					continue
				}
				op.Groups = append(op.Groups, g)
				for _, m := range groups[g] {
					want[addr.NewPrefix(m, 32)] = true
				}
			}
			apply(op)
			model[target] = want
		case 3, 4, 5:
			op := intent.Op{Verb: intent.OpPermit, Target: target, Entries: entries(1 + rng.Intn(3))}
			apply(op)
			if model[target] == nil {
				model[target] = map[addr.Prefix]bool{}
			}
			for _, e := range op.Entries {
				model[target][e] = true
			}
		case 6:
			op := intent.Op{Verb: intent.OpRevoke, Target: target, Entries: entries(1 + rng.Intn(2))}
			apply(op)
			for _, e := range op.Entries {
				delete(model[target], e)
			}
		default:
			if down == "" {
				eip := eips[""][rng.Intn(len(eips[""]))]
				p, _ := c.ProviderOf(eip)
				down, _ = p.Lookup(eip)
				if err := simOf(c).Inj.FailNode(down); err != nil {
					t.Fatal(err)
				}
				continue
			}
			// Heal: the deferred updates land, and the sweep repairs what
			// the targets' declared lists did meanwhile.
			if err := simOf(c).Inj.RestoreNode(down); err != nil {
				t.Fatal(err)
			}
			down = ""
			simOf(c).Eng.RunUntil(simOf(c).Eng.Now() + permitRetryInterval)
			r.RunSweep()
		}
		check(step)
		if step%50 == 49 {
			if res := r.RunSweep(); sweepWork(res) != (SweepResult{}) {
				t.Fatalf("step %d: a sweep found work with no drift injected: %+v", step, res)
			}
		}
	}
	if retries == 0 || m.PermitRetries == 0 {
		t.Fatalf("updates deferred before the restart: %d, after it: %d; the fault arm never ran on one side",
			retries, m.PermitRetries)
	}
}

// TestStoresNeverAppendIntoASharedList is the hazard of one list with two
// holders: addr.InsertPrefix appends into spare capacity, so if either
// store extended a list the other still held, the other's next append
// would write under it. A set_permit with a repeated entry leaves its list
// spare capacity, and both stores hold that list. A permit deferred behind
// a failed node is declared at once and times out uninstalled, so the
// declared list moves on from the installed one; once the node is back,
// the installed list, the older view, is extended again. Both stores must
// read what was declared throughout.
//
// A frame shares its lists too: one frame that declares [a a] on two
// targets hands both one set, with that spare capacity, in both stores;
// then each target is extended by an entry that sorts last. Had either
// permit appended into the frame's set, the second would write under the
// first, and the first target would read the second's entry.
func TestStoresNeverAppendIntoASharedList(t *testing.T) {
	c, w, pa, _, _ := fig1Cloud(t)
	m := c.EnableFaults(FaultPolicy{})
	l, err := intent.Open(t.TempDir(), intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c.EnableIntent(l)
	r, err := c.EnableReconciler(ReconcilerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	node := topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)
	target, err := c.Tenant("acme").RequestEIP(node)
	if err != nil {
		t.Fatal(err)
	}
	a, b, d := pfx("10.0.0.1/32"), pfx("10.0.0.2/32"), pfx("10.0.0.3/32")
	if err := c.Tenant("acme").SetPermitList(target, []permit.Entry{a, a}); err != nil {
		t.Fatal(err)
	}
	if pl, _ := l.Permit(target); cap(pl.Entries) == len(pl.Entries) {
		t.Fatalf("declared %v has no spare capacity; the case needs some", pl.Entries)
	}
	if err := simOf(c).Inj.FailNode(node); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").Permit(target, b); err != nil { // declared [a b]
		t.Fatal(err)
	}
	simOf(c).Eng.RunUntil(simOf(c).Eng.Now() + permitRetryTimeout + permitRetryInterval)
	if got := pa.Permits.EntriesOf(target); m.PermitTimeouts != 1 || !slices.Equal(got, []addr.Prefix{a}) {
		t.Fatalf("installed %v after %d timeouts; the case needs the deferred permit to time out", got, m.PermitTimeouts)
	}
	if err := simOf(c).Inj.RestoreNode(node); err != nil {
		t.Fatal(err)
	}
	if err := c.Tenant("acme").Permit(target, d); err != nil {
		t.Fatal(err)
	}
	want := []addr.Prefix{a, b, d}
	if pl, _ := l.Permit(target); !slices.Equal(pl.Entries, want) {
		t.Fatalf("declared %v, want %v", pl.Entries, want)
	}
	r.RunSweep()
	if got := pa.Permits.EntriesOf(target); !slices.Equal(got, want) {
		t.Fatalf("installed %v after the sweep, want %v", got, want)
	}

	var pair [2]addr.IP
	for i := range pair {
		if pair[i], err = c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Apply("acme",
		intent.Op{Verb: intent.OpSetPermit, Target: pair[0], Entries: []addr.Prefix{a, a}},
		intent.Op{Verb: intent.OpSetPermit, Target: pair[1], Entries: []addr.Prefix{a, a}}); err != nil {
		t.Fatal(err)
	}
	first, _ := l.Permit(pair[0])
	for _, tg := range pair {
		pl, _ := l.Permit(tg)
		installed, _ := pa.Permits.List(tg)
		if pl.Set != first.Set || installed.Set() != first.Set || cap(pl.Entries) == len(pl.Entries) {
			t.Fatalf("%s declares %v (cap %d) and installs %v: not the one set with spare capacity its frame declared",
				tg, pl.Entries, cap(pl.Entries), installed.Entries())
		}
	}
	for i, e := range []addr.Prefix{b, d} {
		if err := c.Tenant("acme").Permit(pair[i], e); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range [][]addr.Prefix{{a, b}, {a, d}} {
		pl, _ := l.Permit(pair[i])
		if got := pa.Permits.EntriesOf(pair[i]); !slices.Equal(pl.Entries, want) || !slices.Equal(got, want) {
			t.Fatalf("%s declares %v and installs %v, want %v", pair[i], pl.Entries, got, want)
		}
	}
}
