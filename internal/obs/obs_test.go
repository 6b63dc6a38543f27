package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestRingBounds(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Tenant: "acme", Kind: PermitAllow, Detail: fmt.Sprintf("e%d", i)})
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
		tr.Record(Event{Tenant: "acme"})
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
		tr.Record(Event{Tenant: "noisy"})
	}
	tr.Record(Event{Tenant: "quiet", Detail: "only"})
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
	if seq := tr.Record(Event{Tenant: "x"}); seq != 0 {
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
				tr.Record(Event{Tenant: tenant, Kind: SIPPick, At: time.Duration(i)})
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
// bound hold under 1 KB (a ring allocated whole is 128 KB), and a ring
// that has filled holds exactly the bound, not append's next doubling.
func TestRingGrowsWithItsTenant(t *testing.T) {
	tr := NewTracer(0)
	held := func() uintptr { return uintptr(cap(tr.rings["acme"].buf)) * unsafe.Sizeof(Event{}) }
	for i := 0; i < 3; i++ {
		tr.Record(Event{Tenant: "acme", Kind: PermitAllow})
	}
	if got := held(); got >= 1024 {
		t.Fatalf("a tenant with three events holds %d B, want < 1 KB", got)
	}
	for i := 0; i < 2*DefaultPerTenantCap; i++ {
		tr.Record(Event{Tenant: "acme", Kind: PermitAllow})
	}
	if got, want := held(), DefaultPerTenantCap*unsafe.Sizeof(Event{}); got != want {
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
		tr.Record(Event{Tenant: tenant, Detail: "hello"})
		tr.Drop(tenant)
	}
	if got := tr.Tenants(); len(got) != 0 {
		t.Fatalf("churned tenants leaked rings: %v", got)
	}
	// Drop the tenant the lookup memo points at, then Record again: the
	// event must land in a fresh, discoverable ring — not the orphan.
	tr.Record(Event{Tenant: "acme", Detail: "before"})
	tr.Drop("acme")
	if tr.Len("acme") != 0 {
		t.Fatal("Drop left buffered events behind")
	}
	tr.Record(Event{Tenant: "acme", Detail: "after"})
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
