package qos

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"declnet/internal/topo"
)

// routerGraph builds a diamond a->{b,c}->d with a cheap backbone branch
// and an expensive transit branch, plus an isolated node x.
func routerGraph(t *testing.T) *topo.Graph {
	t.Helper()
	g := topo.New()
	for _, id := range []topo.NodeID{"a", "b", "c", "d", "x"} {
		g.MustAddNode(topo.Node{ID: id})
	}
	g.MustConnect("ab", "a", "b", topo.Backbone, 1e9, 5*time.Millisecond, 0, 0)
	g.MustConnect("bd", "b", "d", topo.Backbone, 1e9, 5*time.Millisecond, 0, 0)
	g.MustConnect("ac", "a", "c", topo.Transit, 1e9, 20*time.Millisecond, 0, 0)
	g.MustConnect("cd", "c", "d", topo.Transit, 1e9, 20*time.Millisecond, 0, 0)
	return g
}

func pathIDs(p topo.Path) []string {
	ids := make([]string, len(p))
	for i, l := range p {
		ids[i] = l.ID
	}
	return ids
}

func samePath(a, b topo.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

func TestRouterCachesHits(t *testing.T) {
	g := routerGraph(t)
	r := NewRouter(g)
	p1, err := r.PathFor(ColdPotato, "a", "d")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.PathFor(ColdPotato, "a", "d")
	if err != nil {
		t.Fatal(err)
	}
	if !samePath(p1, p2) {
		t.Fatalf("cached path %v != first path %v", pathIDs(p2), pathIDs(p1))
	}
	if r.Hits() != 1 || r.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", r.Hits(), r.Misses())
	}
	// A different key misses independently.
	if _, err := r.PathFor(HotPotato, "a", "d"); err != nil {
		t.Fatal(err)
	}
	if r.Misses() != 2 {
		t.Fatalf("misses=%d, want 2", r.Misses())
	}
}

func TestRouterInvalidatesOnEpochChange(t *testing.T) {
	g := routerGraph(t)
	r := NewRouter(g)
	p1, err := r.PathFor(ColdPotato, "a", "d")
	if err != nil {
		t.Fatal(err)
	}
	if got := pathIDs(p1); got[0] != "ab:fwd" {
		t.Fatalf("initial path %v, want via backbone", got)
	}
	// Fail the backbone: the cache must not serve the old route.
	if err := g.SetPairUp("ab", false); err != nil {
		t.Fatal(err)
	}
	p2, err := r.PathFor(ColdPotato, "a", "d")
	if err != nil {
		t.Fatal(err)
	}
	if samePath(p1, p2) {
		t.Fatalf("stale path %v served after link failure", pathIDs(p2))
	}
	want, err := PathFor(g, ColdPotato, "a", "d")
	if err != nil {
		t.Fatal(err)
	}
	if !samePath(p2, want) {
		t.Fatalf("post-fault path %v != uncached %v", pathIDs(p2), pathIDs(want))
	}
	if r.Flushes() != 1 {
		t.Fatalf("flushes=%d, want 1 after the failure", r.Flushes())
	}
	// Healing the link flushes too: the restored backbone must win back
	// the route even though the cached detour never crossed it.
	if err := g.SetPairUp("ab", true); err != nil {
		t.Fatal(err)
	}
	p3, err := r.PathFor(ColdPotato, "a", "d")
	if err != nil {
		t.Fatal(err)
	}
	if !samePath(p3, p1) {
		t.Fatalf("post-heal path %v, want backbone route %v", pathIDs(p3), pathIDs(p1))
	}
	if r.Flushes() != 2 {
		t.Fatalf("flushes=%d, want 2 after heal", r.Flushes())
	}
}

func TestRouterNegativeCaching(t *testing.T) {
	g := routerGraph(t)
	r := NewRouter(g)
	// x is isolated: the error outcome must be cached...
	if _, err := r.PathFor(ColdPotato, "a", "x"); err == nil {
		t.Fatal("want error for unreachable destination")
	}
	if _, err := r.PathFor(ColdPotato, "a", "x"); err == nil {
		t.Fatal("want cached error for unreachable destination")
	}
	if r.Hits() != 1 {
		t.Fatalf("hits=%d, want 1 (negative entry)", r.Hits())
	}
	// ...and forgotten once topology changes make x reachable.
	g.MustConnect("dx", "d", "x", topo.Backbone, 1e9, time.Millisecond, 0, 0)
	p, err := r.PathFor(ColdPotato, "a", "x")
	if err != nil {
		t.Fatalf("x still unreachable after heal: %v", err)
	}
	if len(p) != 3 {
		t.Fatalf("path %v, want 3 hops", pathIDs(p))
	}
}

func TestRouterMatchesUncachedAcrossPolicies(t *testing.T) {
	g := routerGraph(t)
	r := NewRouter(g)
	for _, pol := range []PotatoPolicy{HotPotato, ColdPotato, Dedicated} {
		got, gotErr := r.PathFor(pol, "a", "d")
		want, wantErr := PathFor(g, pol, "a", "d")
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%v: err=%v, want %v", pol, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%v: err %q != %q", pol, gotErr, wantErr)
			}
			continue
		}
		if !samePath(got, want) {
			t.Fatalf("%v: cached %v != uncached %v", pol, pathIDs(got), pathIDs(want))
		}
	}
}

// regionedGraph builds two provider regions with internal detour
// diamonds (a1->a2 direct or via am) joined by a backbone, so both
// region-confined and cross-region queries are expressible.
func regionedGraph(t *testing.T) *topo.Graph {
	t.Helper()
	g := topo.New()
	add := func(id topo.NodeID, region string) {
		g.MustAddNode(topo.Node{ID: id, Provider: "aws", Region: region})
	}
	for _, n := range []topo.NodeID{"a1", "a2", "am"} {
		add(n, "A")
	}
	for _, n := range []topo.NodeID{"b1", "b2", "bm"} {
		add(n, "B")
	}
	g.MustConnect("a12", "a1", "a2", topo.Fabric, 1e9, 2*time.Millisecond, 0, 0)
	g.MustConnect("a1m", "a1", "am", topo.Fabric, 1e9, 5*time.Millisecond, 0, 0)
	g.MustConnect("am2", "am", "a2", topo.Fabric, 1e9, 5*time.Millisecond, 0, 0)
	g.MustConnect("b12", "b1", "b2", topo.Fabric, 1e9, 2*time.Millisecond, 0, 0)
	g.MustConnect("b1m", "b1", "bm", topo.Fabric, 1e9, 5*time.Millisecond, 0, 0)
	g.MustConnect("bm2", "bm", "b2", topo.Fabric, 1e9, 5*time.Millisecond, 0, 0)
	g.MustConnect("ab", "a2", "b1", topo.Backbone, 1e9, 20*time.Millisecond, 0, 0)
	return g
}

// TestRouterParityWithUncachedUnderScopedMutations drives a fixed
// schedule of failures and heals inside and between the regions and,
// after every step, checks each cached answer against a fresh uncached
// computation — path link IDs and error strings. Each pair is asked
// twice per step, so the second answer comes from the cache the first
// one filled.
func TestRouterParityWithUncachedUnderScopedMutations(t *testing.T) {
	g := regionedGraph(t)
	r := NewRouter(g)
	pairs := [][2]topo.NodeID{
		{"a1", "a2"}, {"b1", "b2"}, {"a1", "b2"}, {"b2", "a1"}, {"am", "bm"},
	}
	checkAll := func(step string) {
		t.Helper()
		for _, pol := range []PotatoPolicy{HotPotato, ColdPotato} {
			for _, pr := range append(pairs, pairs...) {
				got, gotErr := r.PathFor(pol, pr[0], pr[1])
				want, wantErr := PathFor(g, pol, pr[0], pr[1])
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s %v %s->%s: err=%v, want %v", step, pol, pr[0], pr[1], gotErr, wantErr)
				}
				if gotErr != nil {
					if gotErr.Error() != wantErr.Error() {
						t.Fatalf("%s %v %s->%s: err %q != %q", step, pol, pr[0], pr[1], gotErr, wantErr)
					}
					continue
				}
				if !samePath(got, want) {
					t.Fatalf("%s %v %s->%s: cached %v != uncached %v",
						step, pol, pr[0], pr[1], pathIDs(got), pathIDs(want))
				}
			}
		}
	}
	checkAll("initial")
	schedule := []struct {
		id string
		up bool
	}{
		{"a12", false}, {"b1m", false}, {"ab", false}, {"a12", true},
		{"ab", true}, {"b12", false}, {"b1m", true}, {"a1m", false},
		{"b12", true}, {"a1m", true},
	}
	for _, s := range schedule {
		if err := g.SetPairUp(s.id, s.up); err != nil {
			t.Fatal(err)
		}
		checkAll(s.id)
	}
	if r.Hits() == 0 || r.Flushes() == 0 {
		t.Fatalf("schedule exercised hits=%d flushes=%d; want both > 0", r.Hits(), r.Flushes())
	}
}

// TestRouterSingleflight: concurrent misses for the same key run one
// Dijkstra; the stampede parks on the leader and shares its result.
func TestRouterSingleflight(t *testing.T) {
	g := routerGraph(t)
	r := NewRouter(g)
	gate := make(chan struct{})
	r.testSearchGate = func() { <-gate }

	const waiters = 7
	results := make(chan string, waiters+1)
	query := func() {
		p, err := r.PathFor(ColdPotato, "a", "d")
		if err != nil {
			results <- "err:" + err.Error()
			return
		}
		results <- strings.Join(pathIDs(p), ",")
	}
	go query() // leader: blocks in the gate
	// Wait until the leader has registered its flight, then pile on.
	for r.inflightLen() == 0 {
		runtime.Gosched()
	}
	for i := 0; i < waiters; i++ {
		go query()
	}
	for r.waiting.Load() < waiters {
		runtime.Gosched()
	}
	close(gate)
	want := ""
	for i := 0; i < waiters+1; i++ {
		got := <-results
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("diverging results %q vs %q", got, want)
		}
	}
	if r.Searches() != 1 {
		t.Fatalf("searches=%d, want 1 (singleflight)", r.Searches())
	}
	if r.Shared() != waiters {
		t.Fatalf("shared=%d, want %d", r.Shared(), waiters)
	}
}

// TestRouterUnstorableWhenTraversedScopeMutates keeps the guard
// honest: a result whose search saw any mutation land — in the region
// the path crosses or in another one — is returned but not cached.
func TestRouterUnstorableWhenTraversedScopeMutates(t *testing.T) {
	for _, link := range []string{"b1m", "a12"} {
		g := regionedGraph(t)
		r := NewRouter(g)
		fired := false
		r.testSearchGate = func() {
			if !fired {
				fired = true
				// b1m is off the b1->b2 best path but inside its region;
				// a12 is in the other region.
				if err := g.SetPairUp(link, false); err != nil {
					t.Error(err)
				}
			}
		}
		if _, err := r.PathFor(ColdPotato, "b1", "b2"); err != nil {
			t.Fatal(err)
		}
		r.testSearchGate = nil
		if _, err := r.PathFor(ColdPotato, "b1", "b2"); err != nil {
			t.Fatal(err)
		}
		if r.Searches() != 2 {
			t.Fatalf("%s: searches=%d, want 2: a result torn by a mid-search mutation must not be cached", link, r.Searches())
		}
	}
}
