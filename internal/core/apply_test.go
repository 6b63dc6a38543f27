package core

import (
	"fmt"
	"sync"
	"testing"

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
