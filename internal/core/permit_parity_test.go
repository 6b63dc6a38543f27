package core

import (
	"math/rand"
	"slices"
	"testing"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/topo"
)

// TestDeclaredAndInstalledPermitParity drives random set_permit / permit
// / revoke ops — repeated entries, nested prefixes, provider- and
// cloud-level groups that overlap and share a name — through Cloud.Apply
// with a journal attached. Declared (intent.State) and installed
// (permit.Engine) lists are built by the same addr functions, so for
// every target they must be equal slices after every op, equal as sets to
// a model that shares no code with either, and a sweep must find nothing.
func TestDeclaredAndInstalledPermitParity(t *testing.T) {
	c, w, pa, pb, _ := fig1Cloud(t)
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

	apply := func(op intent.Op) addr.IP {
		t.Helper()
		a, err := c.Apply("acme", op)
		if err != nil {
			t.Fatalf("%s: %v", op.Verb, err)
		}
		return a
	}
	// Group members must be EIPs, a provider's own group that provider's.
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

	// Group tables as the model sees them: a provider's own table shadows
	// the cloud's for a set_permit run on that provider.
	rng := rand.New(rand.NewSource(24))
	groupNames := []string{"web", "fleet"}
	provGroups := map[string]map[string][]addr.IP{pa.Name: {}, pb.Name: {}}
	cloudGroups := map[string][]addr.IP{}
	regroup := func() {
		name := groupNames[rng.Intn(len(groupNames))]
		prov := []string{"", pa.Name, pb.Name}[rng.Intn(3)]
		members := make([]addr.IP, 1+rng.Intn(4))
		for i := range members {
			members[i] = eips[prov][rng.Intn(len(eips[prov]))] // may repeat
		}
		if prov != "" {
			provGroups[prov][name] = members
		} else {
			cloudGroups[name] = members
		}
		apply(intent.Op{Verb: intent.OpCreateGroup, Provider: prov, Name: name, Members: members})
	}
	for _, name := range groupNames { // every reference resolves from the start
		cloudGroups[name] = []addr.IP{targets[0]}
		apply(intent.Op{Verb: intent.OpCreateGroup, Name: name, Members: cloudGroups[name]})
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
	for step := 0; step < 600; step++ {
		target := targets[rng.Intn(len(targets))]
		owner, _ := c.ProviderOf(target)
		switch rng.Intn(7) {
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
				members, ok := provGroups[owner.Name][g]
				if !ok {
					members = cloudGroups[g]
				}
				for _, m := range members {
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
		default:
			op := intent.Op{Verb: intent.OpRevoke, Target: target, Entries: entries(1 + rng.Intn(2))}
			apply(op)
			for _, e := range op.Entries {
				delete(model[target], e)
			}
		}
		for _, tg := range targets {
			p, _ := c.ProviderOf(tg)
			installed := p.Permits.EntriesOf(tg)
			var declared []addr.Prefix
			if pl, ok := l.Permit(tg); ok {
				declared = pl.Entries
			}
			if !slices.Equal(installed, declared) {
				t.Fatalf("step %d, target %s: installed %v, declared %v", step, tg, installed, declared)
			}
			var want []addr.Prefix
			for e := range model[tg] {
				want = append(want, e)
			}
			if !entriesEqual(installed, want) {
				t.Fatalf("step %d, target %s: installed %v, the model holds %v", step, tg, installed, sortedEntries(want))
			}
		}
		if step%50 == 49 {
			if res := r.RunSweep(); sweepWork(res) != (SweepResult{}) {
				t.Fatalf("step %d: a sweep found work with no drift injected: %+v", step, res)
			}
		}
	}
}
