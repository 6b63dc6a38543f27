package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"declnet/internal/addr"
)

func TestRingBounds(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record("acme", Decision{Kind: PermitAllow, Detail: fmt.Sprintf("e%d", i)})
	}
	if got := tr.Len("acme"); got != 4 {
		t.Fatalf("Len = %d, want ring cap 4", got)
	}
	evs := tr.Recent("acme", 0)
	if len(evs) != 4 {
		t.Fatalf("Recent returned %d events, want 4", len(evs))
	}
	// Oldest first, and only the newest four survive.
	for i, ev := range evs {
		want := fmt.Sprintf("e%d", 6+i)
		if ev.Detail != want {
			t.Errorf("event %d detail = %q, want %q", i, ev.Detail, want)
		}
	}
	if evs[0].Seq >= evs[3].Seq {
		t.Errorf("events not in Seq order: %d !< %d", evs[0].Seq, evs[3].Seq)
	}
	if tr.Evicted() != 6 {
		t.Errorf("Evicted = %d, want 6", tr.Evicted())
	}
	if tr.Recorded() != 10 {
		t.Errorf("Recorded = %d, want 10", tr.Recorded())
	}
	// The same bound over any element type: the flight recorder's ring.
	var r Ring[int]
	if r.Last(0) != nil {
		t.Fatal("empty ring returned items")
	}
	evicted := 0
	for i := 0; i < 10; i++ {
		if r.Push(i, 4) {
			evicted++
		}
	}
	if got := fmt.Sprint(r.Last(0), r.Last(2), r.Last(9), r.Len(), evicted); got != "[6 7 8 9] [8 9] [6 7 8 9] 4 6" {
		t.Errorf("Ring[int] after 10 pushes at bound 4: Last(0), Last(2), Last(9), Len, evicted = %s", got)
	}
}

func TestRecentLimit(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 5; i++ {
		tr.Record("acme", Decision{})
	}
	if got := len(tr.Recent("acme", 2)); got != 2 {
		t.Fatalf("Recent(2) returned %d events", got)
	}
	if got := len(tr.Recent("nobody", 2)); got != 0 {
		t.Fatalf("Recent for unknown tenant returned %d events", got)
	}
}

func TestPerTenantIsolation(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 10; i++ {
		tr.Record("noisy", Decision{})
	}
	tr.Record("quiet", Decision{Detail: "only"})
	// The noisy tenant's churn must not evict the quiet tenant's history.
	evs := tr.Recent("quiet", 0)
	if len(evs) != 1 || evs[0].Detail != "only" {
		t.Fatalf("quiet tenant lost its event: %v", evs)
	}
	if got := tr.Tenants(); len(got) != 2 || got[0] != "noisy" || got[1] != "quiet" {
		t.Fatalf("Tenants = %v", got)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	if seq := tr.Record("x", Decision{}); seq != 0 {
		t.Fatalf("nil tracer returned seq %d", seq)
	}
	if tr.Recent("x", 0) != nil || tr.Len("x") != 0 || tr.Recorded() != 0 || tr.Evicted() != 0 || tr.Tenants() != nil {
		t.Fatal("nil tracer leaked state")
	}
}

// TestTracerConcurrent exercises Record/Recent from many goroutines; run
// under -race (make race / CI) this is the data-race proof for the
// HTTP-handler-vs-simulation sharing in declnetd.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g%2)
			for i := 0; i < 500; i++ {
				tr.Record(tenant, Decision{Kind: SIPPick, At: time.Duration(i)})
				if i%50 == 0 {
					tr.Recent(tenant, 10)
				}
			}
		}(g)
	}
	wg.Wait()
	if tr.Recorded() != 4000 {
		t.Fatalf("Recorded = %d, want 4000", tr.Recorded())
	}
}

// A Ring costs what its tenant recorded: three events at the default
// bound hold under 1 KB (a ring allocated whole is 72 KB), and a ring
// that has filled holds exactly the bound, not append's next doubling.
func TestRingGrowsWithItsTenant(t *testing.T) {
	tr := NewTracer(0)
	held := func() uintptr { return uintptr(cap(tr.rings["acme"].buf)) * unsafe.Sizeof(Decision{}) }
	for i := 0; i < 3; i++ {
		tr.Record("acme", Decision{Kind: PermitAllow})
	}
	if got := held(); got >= 1024 {
		t.Fatalf("a tenant with three events holds %d B, want < 1 KB", got)
	}
	for i := 0; i < 2*DefaultPerTenantCap; i++ {
		tr.Record("acme", Decision{Kind: PermitAllow})
	}
	if got, want := held(), DefaultPerTenantCap*unsafe.Sizeof(Decision{}); got != want {
		t.Fatalf("a full ring holds %d B, want the bound's %d", got, want)
	}
	if got := tr.Len("acme"); got != DefaultPerTenantCap {
		t.Fatalf("Len = %d, want %d", got, DefaultPerTenantCap)
	}
	if evs := tr.Recent("acme", 0); evs[0].Seq != uint64(3+DefaultPerTenantCap+1) || evs[len(evs)-1].Seq != uint64(3+2*DefaultPerTenantCap) {
		t.Fatalf("Recent spans seq %d..%d after wrapping", evs[0].Seq, evs[len(evs)-1].Seq)
	}
}

// TestDrop is the unbounded-growth regression: a workload churning
// short-lived tenants must not leak one ring per tenant, and dropping
// the memoized tenant must not leave Record writing into the orphaned
// ring.
func TestDrop(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 100; i++ {
		tenant := fmt.Sprintf("churn%d", i)
		tr.Record(tenant, Decision{Detail: "hello"})
		tr.Drop(tenant)
	}
	if got := tr.Tenants(); len(got) != 0 {
		t.Fatalf("churned tenants leaked rings: %v", got)
	}
	// Drop the tenant the lookup memo points at, then Record again: the
	// event must land in a fresh, discoverable ring — not the orphan.
	tr.Record("acme", Decision{Detail: "before"})
	tr.Drop("acme")
	if tr.Len("acme") != 0 {
		t.Fatal("Drop left buffered events behind")
	}
	tr.Record("acme", Decision{Detail: "after"})
	evs := tr.Recent("acme", 0)
	if len(evs) != 1 || evs[0].Detail != "after" {
		t.Fatalf("post-drop events = %v, want exactly the fresh one", evs)
	}
	// Dropping a tenant that never recorded is a no-op.
	tr.Drop("nobody")
	var nilTr *Tracer
	nilTr.Drop("x")
}

func TestChainAndString(t *testing.T) {
	c := Chain("no-healthy-backend:104.255.0.1", "region-down:cloudB/b-east")
	if c != "no-healthy-backend:104.255.0.1 <- region-down:cloudB/b-east" {
		t.Fatalf("Chain = %q", c)
	}
	ev := Event{Seq: 3, At: time.Second, Tenant: "acme", Kind: PermitDeny,
		Src: "1.2.3.4", Dst: "5.6.7.8", Verdict: "deny", Cause: c}
	s := ev.String()
	for _, want := range []string{"#3", "acme", "permit-deny", "1.2.3.4->5.6.7.8", "region-down"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// A ring slot is a Decision, not a rendered Event: what the tracer keeps
// per event is bounded by this size times the ring's bound, per tenant.
func TestDecisionSize(t *testing.T) {
	if size := unsafe.Sizeof(Decision{}); size > 72 {
		t.Fatalf("a Decision is %d bytes, budget 72", size)
	}
}

// Recording into a tenant's full ring copies the decision into a slot and
// allocates nothing — for a permit-update, whose detail is two numbers,
// and for an explain, whose cause string the caller already holds.
func TestRecordIntoFullRingAllocatesNothing(t *testing.T) {
	tr := NewTracer(0)
	dst := addr.MustParseIP("104.0.0.3")
	for i := 0; i < DefaultPerTenantCap; i++ {
		tr.Record("acme", Decision{})
	}
	cause := "permit-deny:104.0.0.3 <- src-not-in-permit-list"
	for _, d := range []Decision{
		{Kind: PermitUpdate, Dst: dst, Verdict: OK, Entries: 2, Epoch: 2},
		{Kind: Explain, Src: dst + 1, Dst: dst, Verdict: Unreachable, Cause: cause},
	} {
		if allocs := testing.AllocsPerRun(1000, func() { tr.Record("acme", d) }); allocs != 0 {
			t.Errorf("recording a %s decision into a full ring allocates %v times, want 0", d.Kind, allocs)
		}
	}
}

// Recent renders every kind exactly as the events recorded whole used to
// read: addresses in dotted quad (a zero address as ""), the verdict's
// name, free text as given, and a permit list's two numbers as
// "entries=N epoch=N".
func TestRecentRendersEveryKind(t *testing.T) {
	ip := addr.MustParseIP
	src, dst, sip := ip("100.64.0.1"), ip("104.0.0.3"), ip("104.255.0.1")
	cases := []struct {
		d    Decision
		want Event // Seq, At, Tenant and Kind are filled in below
	}{
		{Decision{Kind: PermitAllow, Src: src, Dst: dst, Verdict: OK, Detail: "entry=100.64.0.0/10 epoch=3"},
			Event{Src: "100.64.0.1", Dst: "104.0.0.3", Verdict: "ok", Detail: "entry=100.64.0.0/10 epoch=3"}},
		{Decision{Kind: PermitDeny, Src: src, Dst: dst, Verdict: Deny, Entries: 2, Epoch: 5,
			Cause: "permit-deny:104.0.0.3 <- src-not-in-permit-list"},
			Event{Src: "100.64.0.1", Dst: "104.0.0.3", Verdict: "deny", Detail: "entries=2 epoch=5",
				Cause: "permit-deny:104.0.0.3 <- src-not-in-permit-list"}},
		{Decision{Kind: PermitDeny, Src: src, Dst: dst, Verdict: Deny, Cause: "permit-deny:104.0.0.3 <- no-permit-list"},
			Event{Src: "100.64.0.1", Dst: "104.0.0.3", Verdict: "deny", Detail: "entries=0 epoch=0",
				Cause: "permit-deny:104.0.0.3 <- no-permit-list"}},
		{Decision{Kind: PermitUpdate, Dst: dst, Verdict: OK, Entries: 3, Epoch: 4294967296},
			Event{Dst: "104.0.0.3", Verdict: "ok", Detail: "entries=3 epoch=4294967296"}},
		{Decision{Kind: PermitDefer, Dst: dst, Verdict: Deferred, Detail: "entries=1 node=cloudB/b-east/az1/host2",
			Cause: "node-down:cloudB/b-east/az1/host2"},
			Event{Dst: "104.0.0.3", Verdict: "deferred", Detail: "entries=1 node=cloudB/b-east/az1/host2",
				Cause: "node-down:cloudB/b-east/az1/host2"}},
		{Decision{Kind: PermitApply, Dst: dst, Verdict: OK, Detail: "lag=2s epoch=1"},
			Event{Dst: "104.0.0.3", Verdict: "ok", Detail: "lag=2s epoch=1"}},
		{Decision{Kind: PermitTimeout, Dst: dst, Verdict: Fail, Detail: "after=30s",
			Cause: "permit-timeout:104.0.0.3 <- node-down:cloudB/b-east/az1/host2"},
			Event{Dst: "104.0.0.3", Verdict: "fail", Detail: "after=30s",
				Cause: "permit-timeout:104.0.0.3 <- node-down:cloudB/b-east/az1/host2"}},
		{Decision{Kind: SIPPick, Src: src, Dst: sip, Verdict: OK, Detail: "backend=104.0.0.3 healthy=2/2"},
			Event{Src: "100.64.0.1", Dst: "104.255.0.1", Verdict: "ok", Detail: "backend=104.0.0.3 healthy=2/2"}},
		{Decision{Kind: SIPPick, Src: src, Dst: sip, Verdict: Fail, Detail: "healthy=0/2", Cause: "no-healthy-backend:104.255.0.1"},
			Event{Src: "100.64.0.1", Dst: "104.255.0.1", Verdict: "fail", Detail: "healthy=0/2", Cause: "no-healthy-backend:104.255.0.1"}},
		{Decision{Kind: PathSelect, Src: src, Dst: dst, Verdict: Fail, Detail: "policy=hot", Cause: "no-path:hot"},
			Event{Src: "100.64.0.1", Dst: "104.0.0.3", Verdict: "fail", Detail: "policy=hot", Cause: "no-path:hot"}},
		{Decision{Kind: QoSThrottle, Src: src, Dst: dst, Verdict: OK, Detail: "region=a-east quota=1e+09bps demand=5e+08bps"},
			Event{Src: "100.64.0.1", Dst: "104.0.0.3", Verdict: "ok", Detail: "region=a-east quota=1e+09bps demand=5e+08bps"}},
		{Decision{Kind: Failover, Src: dst, Dst: sip, Verdict: Fail, Detail: "node=cloudB/b-east/az1/host1 misses=2",
			Cause: "node-down:cloudB/b-east/az1/host1"},
			Event{Src: "104.0.0.3", Dst: "104.255.0.1", Verdict: "fail", Detail: "node=cloudB/b-east/az1/host1 misses=2",
				Cause: "node-down:cloudB/b-east/az1/host1"}},
		{Decision{Kind: Rebind, Src: dst, Dst: sip, Verdict: OK, Detail: "node=cloudB/b-east/az1/host1 mttr=1.5s"},
			Event{Src: "104.0.0.3", Dst: "104.255.0.1", Verdict: "ok", Detail: "node=cloudB/b-east/az1/host1 mttr=1.5s"}},
		{Decision{Kind: Explain, Src: src, Dst: sip, Verdict: Reachable},
			Event{Src: "100.64.0.1", Dst: "104.255.0.1", Verdict: "reachable"}},
		{Decision{Kind: Explain, Src: src, Dst: dst, Verdict: Unreachable, Cause: "permit-deny:104.0.0.3 <- no-permit-list"},
			Event{Src: "100.64.0.1", Dst: "104.0.0.3", Verdict: "unreachable", Cause: "permit-deny:104.0.0.3 <- no-permit-list"}},
		{Decision{Kind: SLOBreach, Verdict: Degraded, Detail: "shard=cloudA/a-east p99=2ms baseline=1ms",
			Cause: "slo-breach:observer@cloudA/a-east <- noisy-neighbor:noisy@cloudB/b-east"},
			Event{Verdict: "degraded", Detail: "shard=cloudA/a-east p99=2ms baseline=1ms",
				Cause: "slo-breach:observer@cloudA/a-east <- noisy-neighbor:noisy@cloudB/b-east"}},
		{Decision{Kind: Reconcile, Dst: dst, Verdict: Repaired, Detail: "surface=permit entries=2",
			Cause: "reconcile:permit:104.0.0.3 <- drift:missing-list"},
			Event{Dst: "104.0.0.3", Verdict: "repaired", Detail: "surface=permit entries=2",
				Cause: "reconcile:permit:104.0.0.3 <- drift:missing-list"}},
		{Decision{Kind: Reconcile, Src: dst, Dst: sip, Verdict: Repaired, Detail: "surface=bind weight=1",
			Cause: "reconcile:bind:104.255.0.1 <- drift:missing-backend"},
			Event{Src: "104.0.0.3", Dst: "104.255.0.1", Verdict: "repaired", Detail: "surface=bind weight=1",
				Cause: "reconcile:bind:104.255.0.1 <- drift:missing-backend"}},
	}
	tr := NewTracer(0)
	covered := map[Kind]bool{}
	for i, c := range cases {
		c.d.At = time.Duration(i) * time.Millisecond
		tr.Record("acme", c.d)
		covered[c.d.Kind] = true
	}
	for k := PermitAllow; k <= Reconcile; k++ {
		if !covered[k] {
			t.Errorf("no case renders kind %s", k)
		}
	}
	evs := tr.Recent("acme", 0)
	if len(evs) != len(cases) {
		t.Fatalf("Recent returned %d events for %d recorded", len(evs), len(cases))
	}
	for i, c := range cases {
		want := c.want
		want.Seq, want.At, want.Tenant, want.Kind = uint64(i+1), time.Duration(i)*time.Millisecond, "acme", c.d.Kind
		if evs[i] != want {
			t.Errorf("case %d (%s):\n got %+v\nwant %+v", i, c.d.Kind, evs[i], want)
		}
	}

	// On the wire a kind is its name, both ways.
	buf, err := json.Marshal(evs[7])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), `"kind":"sip-pick"`) {
		t.Fatalf("an event's JSON carries %s, want kind \"sip-pick\"", buf)
	}
	var back Event
	if err := json.Unmarshal(buf, &back); err != nil || back != evs[7] {
		t.Fatalf("JSON round trip = %+v, %v; want %+v", back, err, evs[7])
	}
	if err := json.Unmarshal([]byte(`{"kind":"no-such-kind"}`), &back); err == nil {
		t.Fatal("an unknown kind name decoded without error")
	}
}
