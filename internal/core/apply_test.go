package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/topo"
)

// TestCloudLevelVerbsJournalInApplyOrder races writers of one (tenant,
// name) through the cloud-level verbs: whatever order they applied in,
// the journal must have recorded the same order, or memory and the
// store disagree and a restart resurrects an overwritten value. The
// verbs used to apply under nmMu and journal with no shard lock held;
// Apply gives them the tenant's region-less shard like every other verb.
func TestCloudLevelVerbsJournalInApplyOrder(t *testing.T) {
	dir := t.TempDir()
	c, w, _, _, _ := fig1Cloud(t)
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableIntent(l)
	var targets []EIP
	for _, zone := range []string{"az1", "az2"} {
		for host := 1; host <= 2; host++ {
			eip, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], zone, host))
			if err != nil {
				t.Fatal(err)
			}
			targets = append(targets, eip)
		}
	}
	for round := 0; round < 200; round++ {
		var wg sync.WaitGroup
		for _, target := range targets {
			wg.Add(1)
			go func(target EIP) {
				defer wg.Done()
				if err := c.Tenant("acme").Register("svc", target); err != nil {
					t.Error(err)
				}
				if err := c.Tenant("acme").CreateGroup("fleet", target); err != nil {
					t.Error(err)
				}
			}(target)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Tenant("acme").Unregister("svc") // may lose the race to every Register: either is fine
		}()
		wg.Wait()

		st := l.State()
		live, ok := c.Tenant("acme").Resolve("svc")
		declared, declaredOK := st.Names[intent.GroupKey("acme", "svc")]
		if ok != declaredOK || live != declared {
			t.Fatalf("round %d: name svc is %s (%v) live, %s (%v) declared", round, live, ok, declared, declaredOK)
		}
		members, _ := c.groupMembers("acme", "fleet")
		if got, want := fmt.Sprint(st.Groups[intent.GroupKey("acme", "fleet")]), fmt.Sprint(members); got != want {
			t.Fatalf("round %d: group fleet is %s live, %s declared", round, want, got)
		}
	}
	want := c.StateDigest()

	// Crash and restart: the journal alone must rebuild the same world.
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
		t.Fatalf("restored digest %s, live digest %s", got, want)
	}
}

// TestSetPermitJournalsItsExpandedList: set_permit runs under its
// target's shard and create_group under the tenant's region-less one, so
// a set_permit that names a group can reach the journal before the
// create_group whose members it read. Its frame must replay on its own:
// the journal holds the list the verb derived, not the group names. The
// live journal is re-recorded here with the set_permit moved before a
// group's first create_group, and before a create_group that replaced a
// group's members — each adopting its derived list, as a live Record
// does — and the store must reopen into the live world.
func TestSetPermitJournalsItsExpandedList(t *testing.T) {
	dir := t.TempDir()
	c, w, _, _, _ := fig1Cloud(t)
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableIntent(l)
	acme := c.Tenant("acme")
	var eips []EIP
	for _, zone := range []string{"az1", "az2", "az2"} {
		eip, err := acme.RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], zone, 1))
		if err != nil {
			t.Fatal(err)
		}
		eips = append(eips, eip)
	}
	target, a, b := eips[0], eips[1], eips[2]
	for _, g := range []struct {
		name   string
		member EIP
	}{{"made", a}, {"moved", a}, {"moved", b}} { // frames 4, 5, 6
		if err := acme.CreateGroup(g.name, g.member); err != nil {
			t.Fatal(err)
		}
	}
	if err := acme.SetPermitList(target, nil, "made", "moved"); err != nil { // frame 7
		t.Fatal(err)
	}
	declared, _ := l.Permit(target)
	want := c.StateDigest()
	l.Close()
	recs := journalRecords(t, dir)

	for _, at := range []int{3, 5} { // before "made" exists; before "moved" moves to b
		t.Run(fmt.Sprintf("set_permit-at-%d", at), func(t *testing.T) {
			order := slices.Insert(slices.Clone(recs[:len(recs)-1]), at, recs[len(recs)-1])
			dir2 := t.TempDir()
			l2, err := intent.Open(dir2, intent.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range order {
				ops := slices.Clone(rec.Ops)
				for i := range ops {
					if ops[i].Verb == intent.OpSetPermit {
						ops[i].Derived, ops[i].Next = true, declared.Entries
					}
				}
				if l2.Record(rec.Tenant, ops...) == 0 {
					t.Fatalf("record %+v refused: %v", rec, l2.Stats())
				}
			}
			l2.Close()
			l3, err := intent.Open(dir2, intent.Options{})
			if err != nil {
				t.Fatalf("reopening the store: %v", err)
			}
			defer l3.Close()
			c2, _, _, _, _ := fig1Cloud(t)
			if err := c2.RestoreIntent(l3.State()); err != nil {
				t.Fatal(err)
			}
			if got := c2.StateDigest(); got != want {
				pl, _ := l3.Permit(target)
				t.Fatalf("replayed digest %s, live %s: target permits %v, live %v", got, want, pl.Entries, declared.Entries)
			}
		})
	}
}

// journalRecords decodes every record of the store's journal.
func journalRecords(t *testing.T, dir string) []intent.Record {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, _, err := intent.DecodeJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestSetVMEgressRefusesBadCap: a negative or non-finite VM egress cap is
// an error that leaves the endpoint and the journal as they were; zero,
// the provider's default cap, is a cap.
func TestSetVMEgressRefusesBadCap(t *testing.T) {
	c, w, pa, _, _ := fig1Cloud(t)
	l, err := intent.Open(t.TempDir(), intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c.EnableIntent(l)
	acme := c.Tenant("acme")
	eip, err := acme.RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := acme.SetVMEgressCap(eip, 50e6); err != nil {
		t.Fatal(err)
	}
	seq := l.Seq()
	for _, bps := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := acme.SetVMEgressCap(eip, bps); err == nil {
			t.Errorf("SetVMEgressCap(%g) accepted", bps)
		}
	}
	ep, _ := pa.endpoints.Get(eip)
	if ep.egressCap != 50e6 || l.Seq() != seq {
		t.Errorf("after refused caps: cap %g bit/s, journal seq %d; want 5e+07 and %d", ep.egressCap, l.Seq(), seq)
	}
	if err := acme.SetVMEgressCap(eip, 0); err != nil {
		t.Errorf("SetVMEgressCap(0): %v", err)
	}
}

// TestEveryAcceptedMutationIsJournaled drives every verb, accepted and
// refused, through Cloud.Apply and Cloud.ApplyBatch from concurrent
// writers, one tenant each, with a store attached: grants and releases
// (an address one tenant releases may be re-granted to another),
// set_permit naming groups, bad rates, unknown names. A call that
// changed the world is one frame and a refused one none: after every
// call the store has counted no append error, so no op reached
// State.Apply's rejection branch; at the end each tenant owns exactly as
// many frames as it had calls accepted; and the store reopens into the
// live world.
func TestEveryAcceptedMutationIsJournaled(t *testing.T) {
	dir := t.TempDir()
	c, w, _, _, _ := fig1Cloud(t)
	l, err := intent.Open(dir, intent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableIntent(l)
	tenants := []string{"acme", "globex", "initech"}
	accepted := make([]int, len(tenants))
	var wg sync.WaitGroup
	for i, tenant := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			accepted[i] = journalWriter(t, c, w, l, tenant, rand.New(rand.NewSource(int64(i+1))))
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := c.StateDigest()
	total := 0
	for _, n := range accepted {
		total += n
	}
	if got := l.Seq(); got != uint64(total) {
		t.Errorf("journal seq %d, accepted calls %d", got, total)
	}
	l.Close()
	frames := map[string]int{}
	for _, rec := range journalRecords(t, dir) {
		frames[rec.Tenant]++
	}
	for i, tenant := range tenants {
		if frames[tenant] != accepted[i] {
			t.Errorf("tenant %s: %d frames journaled, %d calls accepted", tenant, frames[tenant], accepted[i])
		}
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
		t.Fatalf("restored digest %s, live digest %s", got, want)
	}
}

// journalWriter plays 300 random calls as tenant, a third or more of
// them refused, checking the store after each; it returns how many the cloud
// accepted.
func journalWriter(t *testing.T, c *Cloud, w *topo.Fig1World, l *intent.Log, tenant string, rng *rand.Rand) int {
	var eips, sips []addr.IP
	any := func() addr.IP { // one of the tenant's addresses, or a stranger
		all := append(slices.Clone(eips), sips...)
		if n := rng.Intn(len(all) + 1); n < len(all) {
			return all[n]
		}
		return addr.IP(rng.Uint32())
	}
	oneOf := func(s ...string) string { return s[rng.Intn(len(s))] }
	vm := func() string {
		if rng.Intn(8) == 0 {
			return "cloudA/nowhere"
		}
		return string(topo.HostID(w.CloudA, w.RegionsA[rng.Intn(2)], oneOf("az1", "az2"), 1+rng.Intn(2)))
	}
	rate := func() float64 { return []float64{1e9, 0, -1, math.NaN(), math.Inf(1)}[rng.Intn(5)] }
	entries := func() []addr.Prefix {
		out := []addr.Prefix{pfx("10.0.0.0/8")}
		for range rng.Intn(3) {
			out = append(out, addr.NewPrefix(any(), 32))
		}
		return out
	}
	forget := func(list []addr.IP, a addr.IP) []addr.IP {
		return slices.DeleteFunc(list, func(x addr.IP) bool { return x == a })
	}
	accepted := 0
	for step := 0; step < 300; step++ {
		var err error
		if rng.Intn(8) == 0 {
			// A batch whose later ops may fail: the applied prefix is one
			// frame, and a batch failing at op 0 none.
			ops := []BatchOp{
				{Op: intent.OpRequestEIP, VM: topo.NodeID(vm())},
				{Op: intent.OpSetPermit, Target: "$0", Entries: entries(), Groups: []string{oneOf("web", "db")}},
				{Op: intent.OpCreateGroup, Name: oneOf("web", "db"), Members: []string{"$0", any().String()}},
			}
			var res []BatchResult
			res, err = c.ApplyBatch(tenant, ops[:1+rng.Intn(len(ops))])
			if len(res) > 0 {
				accepted++
				eips = append(eips, res[0].Addr)
			}
		} else {
			op := intent.Op{Verb: []string{
				intent.OpRequestEIP, intent.OpReleaseEIP, intent.OpRequestSIP, intent.OpReleaseSIP,
				intent.OpBind, intent.OpUnbind, intent.OpSetPermit, intent.OpPermit, intent.OpRevoke,
				intent.OpSetQoS, intent.OpSetPotato, intent.OpSetVMEgress, intent.OpCreateGroup,
				intent.OpRegisterName, intent.OpUnregisterName,
			}[rng.Intn(15)]}
			switch op.Verb {
			case intent.OpRequestEIP:
				op.VM = vm()
			case intent.OpReleaseEIP, intent.OpReleaseSIP:
				op.Addr = any()
			case intent.OpRequestSIP:
				op.Provider = oneOf(w.CloudA, w.CloudB, "cloudZ")
			case intent.OpBind, intent.OpUnbind:
				op.EIP, op.SIP, op.Weight = any(), any(), rng.Intn(3)
			case intent.OpSetPermit:
				op.Target, op.Entries = any(), entries()
				if rng.Intn(2) == 0 {
					op.Groups = []string{oneOf("web", "db")}
				}
			case intent.OpPermit, intent.OpRevoke:
				op.Target, op.Entries = any(), entries()
			case intent.OpSetQoS:
				op.Provider, op.Region, op.Bps = w.CloudA, oneOf(w.RegionsA[0], w.RegionsA[1], "nowhere"), rate()
			case intent.OpSetPotato:
				op.Provider, op.Policy = oneOf(w.CloudA, w.CloudB), oneOf("hot", "cold", "tepid")
			case intent.OpSetVMEgress:
				op.EIP, op.Bps = any(), rate()
			case intent.OpCreateGroup:
				op.Name, op.Members = oneOf("web", "db"), []addr.IP{any(), any()}
			case intent.OpRegisterName, intent.OpUnregisterName:
				op.Name, op.Addr = oneOf("svc", "api"), any()
				if op.Verb == intent.OpUnregisterName {
					op.Addr = 0
				}
			}
			var a addr.IP
			if a, err = c.Apply(tenant, op); err == nil {
				accepted++
				switch op.Verb {
				case intent.OpRequestEIP:
					eips = append(eips, a)
				case intent.OpRequestSIP:
					sips = append(sips, a)
				case intent.OpReleaseEIP:
					eips = forget(eips, op.Addr)
				case intent.OpReleaseSIP:
					sips = forget(sips, op.Addr)
				}
			}
		}
		if st := l.Stats(); st.AppendErrors != 0 {
			t.Errorf("%s step %d (err %v): %d append errors, the last %v", tenant, step, err, st.AppendErrors, st.LastError)
			return accepted
		}
	}
	return accepted
}
