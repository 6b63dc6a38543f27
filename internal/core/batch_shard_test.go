package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/metrics"
	"declnet/internal/permit"
	"declnet/internal/topo"
)

// stillBlocked fails the test if done closes within a short grace
// period: the call behind it must be waiting on a lock the test holds.
func stillBlocked(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s finished while its shard was locked", what)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestShardLockIsolation: isolation is a lock-footprint property, so it
// is checked as one. With the shard tenant A's op takes write-locked,
// every op of E13's storm mix, a batch, Probe and Explain complete for
// tenant B, while the same op for tenant A waits for the release. A
// global write lock on any of those paths fails the row.
func TestShardLockIsolation(t *testing.T) {
	c, w, pa, _, _ := fig1Cloud(t)
	vm := topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1)
	// Per tenant: src and spare in cloudA's first region, a SIP on
	// cloudA, and dst in cloudB admitting src.
	type fixture struct{ src, spare, sip, dst addr.IP }
	fx := map[string]fixture{}
	for _, tenant := range []string{"tenant-a", "tenant-b"} {
		var f fixture
		var err error
		if f.src, err = c.Tenant(tenant).RequestEIP(vm); err != nil {
			t.Fatal(err)
		}
		if f.spare, err = c.Tenant(tenant).RequestEIP(vm); err != nil {
			t.Fatal(err)
		}
		if f.sip, err = c.Tenant(tenant).RequestSIP(pa.Name); err != nil {
			t.Fatal(err)
		}
		if f.dst, err = c.Tenant(tenant).RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1)); err != nil {
			t.Fatal(err)
		}
		if err := c.Tenant(tenant).SetPermitList(f.dst, []permit.Entry{addr.NewPrefix(f.src, 32)}); err != nil {
			t.Fatal(err)
		}
		fx[tenant] = f
	}
	type row struct {
		name  string
		shard func(tenant string, f fixture) ShardKey // the shard the op takes
		run   func(tenant string, f fixture) error
	}
	// verb builds a row from one Table-2 op; its shard is the one the
	// verb path plans for it (a planned key is valid even beside a
	// routing error, and the run reports that error).
	verb := func(name string, mk func(f fixture) intent.Op) row {
		return row{name,
			func(tenant string, f fixture) ShardKey {
				op := mk(f)
				k, _ := c.apply(tenant, &op, applyPlan)
				return k
			},
			func(tenant string, f fixture) error {
				_, err := c.Apply(tenant, mk(f))
				return err
			}}
	}
	srcShard := func(tenant string, f fixture) ShardKey { return c.shardKeyOf(tenant, f.src) }
	wide, narrow := []permit.Entry{pfx("10.0.0.0/8")}, []permit.Entry{pfx("10.1.0.0/16")}
	rows := []row{
		verb("set_permit", func(f fixture) intent.Op {
			return intent.Op{Verb: intent.OpSetPermit, Target: f.src, Entries: wide}
		}),
		verb("permit", func(f fixture) intent.Op {
			return intent.Op{Verb: intent.OpPermit, Target: f.src, Entries: narrow}
		}),
		verb("revoke", func(f fixture) intent.Op {
			return intent.Op{Verb: intent.OpRevoke, Target: f.src, Entries: narrow}
		}),
		verb("request_eip", func(fixture) intent.Op { return intent.Op{Verb: intent.OpRequestEIP, VM: string(vm)} }),
		verb("release_eip", func(f fixture) intent.Op { return intent.Op{Verb: intent.OpReleaseEIP, Addr: f.spare} }),
		verb("bind", func(f fixture) intent.Op { return intent.Op{Verb: intent.OpBind, EIP: f.src, SIP: f.sip} }),
		verb("set_qos", func(fixture) intent.Op {
			return intent.Op{Verb: intent.OpSetQoS, Provider: w.CloudA, Region: w.RegionsA[0], Bps: 1e9}
		}),
		{"batch", srcShard, func(tenant string, _ fixture) error {
			_, err := c.ApplyBatch(tenant, []BatchOp{
				{Op: "request_eip", VM: vm},
				{Op: "set_permit", Target: "$0", Entries: wide},
			})
			return err
		}},
		{"probe", srcShard, func(tenant string, f fixture) error {
			_, _, err := c.Tenant(tenant).Probe(f.src, f.dst)
			return err
		}},
		{"explain", srcShard, func(tenant string, f fixture) error {
			_, err := c.Tenant(tenant).Explain(f.src, f.dst)
			return err
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			do := func(tenant string) <-chan struct{} {
				return async(func() {
					if err := r.run(tenant, fx[tenant]); err != nil {
						t.Errorf("%s %s: %v", tenant, r.name, err)
					}
				})
			}
			held := c.shards.shardOf(r.shard("tenant-a", fx["tenant-a"]))
			held.mu.Lock()
			release := sync.OnceFunc(held.mu.Unlock)
			defer release()
			blocked := do("tenant-a")
			stillBlocked(t, blocked, "tenant-a's "+r.name)
			// tenant-a's op is parked on the held shard by now: whatever
			// else it took, tenant-b's op must get past it.
			within(t, 10*time.Second, do("tenant-b"), "tenant-b's "+r.name+" beside tenant-a's locked shard")
			release()
			within(t, 10*time.Second, blocked, "tenant-a's "+r.name+" after release")
		})
	}
}

// TestBatchHoldsEveryShardThroughout: a batch spanning two shards takes
// both before its first op and keeps both until its last, so a single
// verb on either shard sees all of the batch's ops there or none.
func TestBatchHoldsEveryShardThroughout(t *testing.T) {
	c, w, pa, pb, _ := fig1Cloud(t)
	x, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
	if err != nil {
		t.Fatal(err)
	}
	y, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudB, w.RegionsB[0], "az1", 1))
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := pfx("10.1.0.0/16"), pfx("10.2.0.0/16")
	first := c.shards.shardOf(c.shardKeyOf("acme", x))
	second := c.shards.shardOf(c.shardKeyOf("acme", y))
	if !c.shardKeyOf("acme", x).less(c.shardKeyOf("acme", y)) {
		t.Fatal("test assumes x's shard sorts before y's")
	}

	// Hold the later shard: the batch (written y-first, to show textual
	// order is irrelevant) takes x's shard and then waits for y's.
	second.mu.Lock()
	batch := async(func() {
		_, err := c.ApplyBatch("acme", []BatchOp{
			{Op: "set_permit", Target: y.String(), Entries: []permit.Entry{p1}},
			{Op: "set_permit", Target: x.String(), Entries: []permit.Entry{p1}},
		})
		if err != nil {
			t.Errorf("batch: %v", err)
		}
	})
	for first.mu.TryLock() { // until the batch holds x's shard
		first.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	single := async(func() {
		if err := c.Tenant("acme").Permit(x, p2); err != nil {
			t.Errorf("single verb: %v", err)
		}
	})
	stillBlocked(t, single, "single verb on a shard the waiting batch holds")
	if _, installed := pa.Permits.List(x); installed {
		t.Fatal("the batch applied an op before it held every shard")
	}
	second.mu.Unlock()
	within(t, 10*time.Second, batch, "batch after release")
	within(t, 10*time.Second, single, "single verb after the batch")
	// The single verb ran after the whole batch: its entry joined the
	// batch's list instead of being overwritten by it.
	if eq, _ := pa.Permits.EqualsEntries(x, []permit.Entry{p1, p2}); !eq {
		t.Fatalf("x's list = %v, want the batch's entry plus the single verb's", pa.Permits.EntriesOf(x))
	}
	if eq, _ := pb.Permits.EqualsEntries(y, []permit.Entry{p1}); !eq {
		t.Fatalf("y's list = %v, want the batch's entry", pb.Permits.EntriesOf(y))
	}
}

// TestBatchPlanMatchesRoute: for every batch verb, the shard the static
// pass plans to lock — from stand-in addresses, before anything is
// granted — is the shard the verb routes to once the batch is running.
func TestBatchPlanMatchesRoute(t *testing.T) {
	c, w, pa, _, _ := fig1Cloud(t)
	vm := topo.HostID(w.CloudA, w.RegionsA[1], "az1", 1)
	e := []permit.Entry{pfx("10.0.0.0/8")}
	ops := []BatchOp{
		{Op: "request_eip", VM: vm},             // $0
		{Op: "request_sip", Provider: w.CloudA}, // $1
		{Op: "bind", EIP: "$0", SIP: "$1", Weight: 2},
		{Op: "set_permit", Target: "$0", Entries: e},
		{Op: "permit", Target: "$1", Entries: e},
		{Op: "revoke", Target: "$1", Entries: e},
		{Op: "set_qos", Provider: w.CloudA, Region: w.RegionsA[1], Bandwidth: 1e9},
		{Op: "set_potato", Provider: w.CloudA},
		{Op: "create_group", Name: "g", Members: []string{"$0"}},
		{Op: "register_name", Name: "n", Target: "$1"},
		{Op: "unbind", EIP: "$0", SIP: "$1"},
		{Op: "release_sip", SIP: "$1"},
		{Op: "release_eip", EIP: "$0"},
	}
	standIns := make([]BatchResult, len(ops))
	results := make([]BatchResult, 0, len(ops))
	for i := range ops {
		planned, err := c.typed(ops, i, standIns)
		if err != nil {
			t.Fatalf("op %d static: %v", i, err)
		}
		want, _ := c.apply("acme", &planned, applyPlan)
		if grants(planned.Verb) {
			if standIns[i].Addr = c.standIn(want); standIns[i].Addr == 0 {
				t.Fatalf("op %d (%s): no stand-in for shard %v", i, ops[i].Op, want)
			}
		}
		live, err := c.typed(ops, i, results)
		if err != nil {
			t.Fatalf("op %d live: %v", i, err)
		}
		got, err := c.apply("acme", &live, applyHeld)
		if err != nil {
			t.Fatalf("op %d (%s): %v", i, ops[i].Op, err)
		}
		if got != want {
			t.Errorf("op %d (%s): planned shard %v, ran under %v", i, ops[i].Op, want, got)
		}
		results = append(results, BatchResult{Op: live.Verb, Addr: live.Addr})
	}
	if n := pa.EndpointCount() + pa.ServiceCount(); n != 0 {
		t.Fatalf("%d addresses left after the script released both", n)
	}
}

// TestShardKeyOfAllocatesNothing: routing an address to its shard is one
// binary search over interned block entries — the planner does it per
// batch op and every probe does it twice.
func TestShardKeyOfAllocatesNothing(t *testing.T) {
	c, w, pa, _, _ := fig1Cloud(t)
	eip, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[1], "az1", 1))
	if err != nil {
		t.Fatal(err)
	}
	sip, err := c.Tenant("acme").RequestSIP(pa.Name)
	if err != nil {
		t.Fatal(err)
	}
	if k, want := c.shardKeyOf("acme", eip), (ShardKey{"acme", w.CloudA + "/" + w.RegionsA[1]}); k != want {
		t.Fatalf("shardKeyOf(EIP) = %v, want %v", k, want)
	}
	if k, want := c.shardKeyOf("acme", sip), (ShardKey{"acme", w.CloudA}); k != want {
		t.Fatalf("shardKeyOf(SIP) = %v, want %v", k, want)
	}
	if k, want := c.shardKeyOf("acme", 1), (ShardKey{Tenant: "acme"}); k != want {
		t.Fatalf("shardKeyOf(unowned) = %v, want %v", k, want)
	}
	var sink ShardKey
	allocs := testing.AllocsPerRun(1000, func() {
		sink = c.shardKeyOf("acme", eip)
		sink = c.shardKeyOf("acme", sip)
		sink = pa.regionShardKey("acme", w.RegionsA[1])
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("shardKeyOf/regionShardKey allocate %.1f times per call set, want 0", allocs)
	}
}

// TestBatchedOpCountsLikeSingle: a set_permit carried by a batch moves
// declnet_permit_updates_total exactly as the same op issued singly (the
// old batch window counted installed entries instead).
func TestBatchedOpCountsLikeSingle(t *testing.T) {
	entries := []permit.Entry{pfx("10.0.0.0/8"), pfx("172.16.0.0/12"), pfx("192.168.0.0/16")}
	updates := func(batched bool) float64 {
		c, w, _, _, _ := fig1Cloud(t)
		reg := metrics.NewRegistry()
		c.EnableObservability(nil, reg)
		eip, err := c.Tenant("acme").RequestEIP(topo.HostID(w.CloudA, w.RegionsA[0], "az1", 1))
		if err != nil {
			t.Fatal(err)
		}
		sample := func() (float64, bool) {
			for _, s := range reg.Snapshot() {
				if s.Name == "declnet_permit_updates_total" && slices.Equal(s.Labels, []metrics.Label{metrics.L("provider", w.CloudA)}) {
					return s.Value, true
				}
			}
			return 0, false
		}
		before, ok := sample()
		if !ok {
			t.Fatalf("no declnet_permit_updates_total{provider=%q} sample", w.CloudA)
		}
		if batched {
			_, err = c.ApplyBatch("acme", []BatchOp{{Op: "set_permit", Target: eip.String(), Entries: entries}})
		} else {
			err = c.Tenant("acme").SetPermitList(eip, entries)
		}
		if err != nil {
			t.Fatal(err)
		}
		after, _ := sample()
		return after - before
	}
	if single, batched := updates(false), updates(true); single != batched || single != 1 {
		t.Fatalf("permit updates counted: single %v, batched %v, want 1 and 1", single, batched)
	}
}
