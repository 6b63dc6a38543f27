package slo

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"declnet/internal/addr"
	"declnet/internal/metrics"
)

func TestNilPlaneIsInert(t *testing.T) {
	var p *Plane
	p.Observe(VerbConnect, "t", "r", time.Millisecond)
	p.StampPermit("t", 1)
	p.ResolveLag(1, "r")
	p.AdvanceWindow()
	p.DropTenant("t")
	p.SetObjective("t", Objective{ConnectP99: time.Second})
	op := p.Begin(VerbConnect, "t", "r")
	op.SetRegion("x")
	op.StageEnd(op.StageStart(), "s")
	op.End(errors.New("boom"))
	if p.Health().Status != "ok" || p.Report("") != nil || p.Flight(0) != nil {
		t.Error("nil plane must report empty state")
	}
	if p.ShardCount() != 0 || p.WindowGen() != 0 || p.PendingLagSamples() != 0 {
		t.Error("nil plane counters must be zero")
	}
}

func TestObserveAndWindows(t *testing.T) {
	p := NewPlane(Config{Window: time.Hour})
	for i := 0; i < 10; i++ {
		p.Observe(VerbConnect, "t1", "p/r1", time.Microsecond)
		p.Observe(VerbPermit, "t2", "p/r2", time.Microsecond)
	}
	snaps := p.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("shards = %d, want 2", len(snaps))
	}
	// Snapshot is sorted by key: t1 first.
	if snaps[0].Key.Tenant != "t1" || snaps[1].Key.Tenant != "t2" {
		t.Fatalf("snapshot order: %v, %v", snaps[0].Key, snaps[1].Key)
	}
	if snaps[0].WinConn.Count != 10 || snaps[0].WinMut != 0 {
		t.Errorf("t1 window: conn=%d mut=%d, want 10/0", snaps[0].WinConn.Count, snaps[0].WinMut)
	}
	if snaps[1].WinConn.Count != 0 || snaps[1].WinMut != 10 {
		t.Errorf("t2 window: conn=%d mut=%d, want 0/10", snaps[1].WinConn.Count, snaps[1].WinMut)
	}
	p.AdvanceWindow()
	if p.WindowGen() != 1 {
		t.Fatalf("gen = %d", p.WindowGen())
	}
	snaps = p.Snapshot()
	if snaps[0].WinConn.Count != 0 || snaps[0].BaseCon.Count != 10 {
		t.Errorf("after rotation: cur=%d base=%d, want 0/10", snaps[0].WinConn.Count, snaps[0].BaseCon.Count)
	}
	// Cumulative verb histograms survive rotation.
	if snaps[0].Verbs[VerbConnect].Count != 10 {
		t.Errorf("cumulative connect count = %d", snaps[0].Verbs[VerbConnect].Count)
	}
	// A second rotation retires the old baseline entirely.
	p.AdvanceWindow()
	snaps = p.Snapshot()
	if snaps[0].BaseCon.Count != 0 {
		t.Errorf("baseline after two rotations = %d, want 0", snaps[0].BaseCon.Count)
	}
}

func TestLazyRotation(t *testing.T) {
	p := NewPlane(Config{Window: time.Millisecond})
	p.Observe(VerbConnect, "t", "r", time.Microsecond)
	time.Sleep(3 * time.Millisecond)
	p.Observe(VerbConnect, "t", "r", time.Microsecond)
	if p.WindowGen() == 0 {
		t.Error("elapsed window must rotate lazily on the record path")
	}
}

func TestSpanSamplingAndFlight(t *testing.T) {
	p := NewPlane(Config{Window: time.Hour, SampleEvery: 2, HistSampleEvery: 1})
	p.slowSpan = time.Hour
	// opN%2==1 samples: op 1 sampled, op 2 not.
	op1 := p.Begin(VerbConnect, "t", "r")
	if !op1.Sampled() {
		t.Error("first op should be head-sampled at SampleEvery=2")
	}
	stg := op1.StageStart()
	op1.StageEnd(stg, "permit")
	op1.End(nil)
	op2 := p.Begin(VerbConnect, "t", "r")
	if op2.Sampled() {
		t.Error("second op should be unsampled")
	}
	op2.End(nil) // unsampled, fast, no error: not retained
	op3 := p.Begin(VerbConnect, "t", "r")
	op3.End(errors.New("denied")) // sampled (odd) AND error: retained as error
	op4 := p.Begin(VerbConnect, "t", "r")
	op4.End(errors.New("denied")) // unsampled but error: retained anyway
	spans := p.Flight(0)
	if len(spans) != 3 {
		t.Fatalf("flight holds %d spans, want 3", len(spans))
	}
	if spans[0].Why != "sampled" || len(spans[0].Stages) != 1 || spans[0].Stages[0].Name != "permit" {
		t.Errorf("span 0 = %+v, want sampled with one permit stage", spans[0])
	}
	if spans[1].Why != "error" || spans[1].Err != "denied" {
		t.Errorf("span 1 = %+v, want error retention", spans[1])
	}
	if spans[2].Why != "error" || spans[2].Stages != nil {
		t.Errorf("span 2 = %+v, want unsampled error retention", spans[2])
	}
	// End is idempotent: a second End must not double-record.
	before := p.FlightRetained()
	op3.End(nil)
	if p.FlightRetained() != before {
		t.Error("double End retained a second span")
	}
	// Service time recorded for all four ops at HistSampleEvery=1.
	if got := p.Snapshot()[0].Verbs[VerbConnect].Count; got != 4 {
		t.Errorf("connect count = %d, want 4", got)
	}
}

// TestHistHeadSampling pins the service-time sampling contract: at
// HistSampleEvery=4 only ops 1 and 5 draw timing tickets, an errored
// op without a ticket is still retained (with zero duration), and the
// first op is always sampled.
func TestHistHeadSampling(t *testing.T) {
	p := NewPlane(Config{Window: time.Hour, HistSampleEvery: 4, SampleEvery: 1 << 30})
	p.slowSpan = time.Hour
	for i := 0; i < 6; i++ {
		op := p.Begin(VerbConnect, "t", "r")
		var err error
		if i == 2 { // op 3: sampled out AND errored
			err = errors.New("boom")
		}
		op.End(err)
	}
	if got := p.Snapshot()[0].Verbs[VerbConnect].Count; got != 2 {
		t.Errorf("connect count = %d, want 2 (ops 1 and 5)", got)
	}
	// Op 1 is head-sampled (first op always draws a ticket); op 3's error
	// retention rides along untimed.
	spans := p.Flight(0)
	if len(spans) != 2 || spans[0].Why != "sampled" {
		t.Fatalf("spans = %+v, want sampled op 1 plus the error", spans)
	}
	if spans[1].Why != "error" || spans[1].DurUS != 0 {
		t.Fatalf("span = %+v, want zero-duration error retention", spans[1])
	}
}

// TestSampledOutOpIsFree is the instrumentation-overhead budget as a
// count: at the default rates an op that draws no ticket reads no clock
// and allocates nothing, so always-on instrumentation costs the
// unsampled majority one atomic add and two modulos.
func TestSampledOutOpIsFree(t *testing.T) {
	p := NewPlane(Config{})
	first := p.Begin(VerbConnect, "t", "r") // op 1 always draws a ticket
	first.End(nil)
	// The warm-up call plus these runs are ops 2..HistSampleEvery: the
	// whole sampled-out stretch before the next ticket.
	allocs := testing.AllocsPerRun(p.cfg.HistSampleEvery-2, func() {
		op := p.Begin(VerbConnect, "t", "r")
		stg := op.StageStart()
		if !op.t0.IsZero() || !stg.IsZero() {
			t.Errorf("sampled-out op read the clock: t0 %v, stage %v", op.t0, stg)
		}
		op.StageEnd(stg, "permit")
		op.End(nil)
	})
	if allocs != 0 {
		t.Errorf("sampled-out op allocates %v times, want 0", allocs)
	}
	if got := p.Snapshot()[0].Verbs[VerbConnect].Count; got != 1 {
		t.Errorf("connect count = %d, want only op 1 timed", got)
	}
}

func TestFlightRingOverwrite(t *testing.T) {
	p := NewPlane(Config{Window: time.Hour, SampleEvery: 1})
	const total = flightCap + 6
	for i := 0; i < total; i++ {
		op := p.Begin(VerbConnect, "t", "r")
		op.End(fmt.Errorf("e%d", i))
	}
	spans := p.Flight(0)
	if len(spans) != flightCap {
		t.Fatalf("ring holds %d, want cap %d", len(spans), flightCap)
	}
	if first, last := spans[0].Err, spans[flightCap-1].Err; first != "e6" || last != fmt.Sprintf("e%d", total-1) {
		t.Errorf("ring contents %q..%q, want e6..e%d oldest-first", first, last, total-1)
	}
	if got := p.Flight(2); len(got) != 2 || got[1].Err != fmt.Sprintf("e%d", total-1) {
		t.Errorf("Flight(2) = %+v, want last two", got)
	}
	if p.FlightRetained() != total {
		t.Errorf("retained total = %d, want %d", p.FlightRetained(), total)
	}
}

func TestSlowSpanRetention(t *testing.T) {
	p := NewPlane(Config{Window: time.Hour, SampleEvery: 1 << 30})
	p.slowSpan = time.Nanosecond
	op := p.Begin(VerbQoS, "t", "r")
	op.End(nil)
	spans := p.Flight(0)
	if len(spans) != 1 || spans[0].Why != "slow" {
		t.Fatalf("spans = %+v, want one slow retention", spans)
	}
}

func TestPermitLagSampler(t *testing.T) {
	p := NewPlane(Config{Window: time.Hour, LagSampleEvery: 1})
	target := addr.IP(0x0a000001)
	p.StampPermit("t", target)
	if p.PendingLagSamples() != 1 {
		t.Fatalf("pending = %d", p.PendingLagSamples())
	}
	// Resolving a different address in the same stripe is a no-op.
	p.ResolveLag(target+1, "p/r")
	if p.PendingLagSamples() != 1 {
		t.Error("wrong-target resolve consumed the sample")
	}
	p.ResolveLag(target, "p/r")
	if p.PendingLagSamples() != 0 {
		t.Error("resolve left the sample pending")
	}
	p.ResolveLag(target, "p/r") // double resolve: no-op
	s := p.Snapshot()
	if len(s) != 1 || s[0].Key != (Key{Tenant: "t", Region: "p/r"}) {
		t.Fatalf("lag shard = %+v, want (t, p/r) from the resolve-side region", s)
	}
	if s[0].Lag.Count != 1 || s[0].WinLag.Count != 1 {
		t.Fatalf("lag histograms = %+v, want one sample in cumulative and window", s)
	}
	// Re-stamping the same target overwrites rather than double-counting.
	p.StampPermit("t", target)
	p.StampPermit("t", target)
	if p.PendingLagSamples() != 1 {
		t.Errorf("re-stamp pending = %d, want 1", p.PendingLagSamples())
	}
}

func TestPermitLagHeadSampling(t *testing.T) {
	p := NewPlane(Config{Window: time.Hour, LagSampleEvery: 8})
	for i := 0; i < 64; i++ {
		p.StampPermit("t", addr.IP(uint32(i+1)))
	}
	if got := p.PendingLagSamples(); got != 8 {
		t.Errorf("pending = %d, want 64/8 = 8", got)
	}
}

func TestPermitLagStripeCap(t *testing.T) {
	p := NewPlane(Config{Window: time.Hour, LagSampleEvery: 1})
	// All targets share a /16, so they land in one stripe.
	for i := 0; i < 2*lagStripeCap; i++ {
		p.StampPermit("t", addr.IP(0x0a000000+uint32(i)))
	}
	if got := p.PendingLagSamples(); got != lagStripeCap {
		t.Errorf("pending = %d, want stripe cap %d", got, lagStripeCap)
	}
}

func TestDetectorBreachAndAttribution(t *testing.T) {
	p := NewPlane(Config{Window: time.Hour})
	victim, quiet := Key{Tenant: "v", Region: "p/r1"}, Key{Tenant: "q", Region: "p/r2"}
	// Baseline window: fast connects for both shards.
	for i := 0; i < 32; i++ {
		p.Observe(VerbConnect, victim.Tenant, victim.Region, time.Microsecond)
		p.Observe(VerbConnect, quiet.Tenant, quiet.Region, time.Microsecond)
	}
	p.AdvanceWindow()
	// Current window: the victim degrades 8x while a noisy tenant storms
	// mutations; the quiet shard stays flat.
	for i := 0; i < 32; i++ {
		p.Observe(VerbConnect, victim.Tenant, victim.Region, 8*time.Microsecond)
		p.Observe(VerbConnect, quiet.Tenant, quiet.Region, time.Microsecond)
	}
	for i := 0; i < 100; i++ {
		p.Observe(VerbPermit, "noisy", "p/r3", time.Microsecond)
	}
	var fired []string
	p.OnBreach(func(tenant, detail, cause string) {
		fired = append(fired, tenant+"|"+cause)
	})
	rep := p.Health()
	if rep.Status != "degraded" || len(rep.Breaches) != 1 {
		t.Fatalf("health = %+v, want one breach", rep)
	}
	b := rep.Breaches[0]
	if b.Shard != "v@p/r1" {
		t.Errorf("victim = %q", b.Shard)
	}
	if b.Suspect != "noisy@p/r3" || b.SuspectOps != 100 {
		t.Errorf("suspect = %q ops=%d, want noisy@p/r3 with 100", b.Suspect, b.SuspectOps)
	}
	if b.Ratio < breachFactor || rep.Factor != breachFactor {
		t.Errorf("ratio = %.2f under breach factor", b.Ratio)
	}
	for _, frag := range []string{"slo-breach:connect-p99:v@p/r1", "noisy-neighbor:noisy@p/r3", "mutation-storm:ops=100", " <- "} {
		if !strings.Contains(b.Cause, frag) {
			t.Errorf("cause %q missing %q", b.Cause, frag)
		}
	}
	if len(fired) != 1 || !strings.HasPrefix(fired[0], "v|") {
		t.Fatalf("OnBreach fired %v, want once for v", fired)
	}
	// Same window generation: the callback is de-duplicated, the report
	// still shows the breach.
	rep = p.Health()
	if len(fired) != 1 || len(rep.Breaches) != 1 {
		t.Errorf("re-poll fired %d callbacks, %d breaches; want 1/1", len(fired), len(rep.Breaches))
	}
}

func TestDetectorNoDominantMutator(t *testing.T) {
	p := NewPlane(Config{Window: time.Hour})
	victim := Key{Tenant: "v", Region: "p/r1"}
	for i := 0; i < 32; i++ {
		p.Observe(VerbConnect, victim.Tenant, victim.Region, time.Microsecond)
	}
	p.AdvanceWindow()
	for i := 0; i < 32; i++ {
		p.Observe(VerbConnect, victim.Tenant, victim.Region, 8*time.Microsecond)
	}
	for i := 0; i < minStormOps-1; i++ { // one short of the storm floor
		p.Observe(VerbPermit, "other", "p/r2", time.Microsecond)
	}
	rep := p.Health()
	if len(rep.Breaches) != 1 {
		t.Fatalf("want breach, got %+v", rep)
	}
	if rep.Breaches[0].Suspect != "" || !strings.Contains(rep.Breaches[0].Cause, "no-dominant-mutator") {
		t.Errorf("breach = %+v, want unattributed", rep.Breaches[0])
	}
}

func TestDetectorThinWindowsStaySilent(t *testing.T) {
	p := NewPlane(Config{Window: time.Hour})
	k := Key{Tenant: "v", Region: "p/r"}
	for i := 0; i < minWindowSamples-1; i++ {
		p.Observe(VerbConnect, k.Tenant, k.Region, time.Microsecond)
	}
	p.AdvanceWindow()
	for i := 0; i < minWindowSamples-1; i++ {
		p.Observe(VerbConnect, k.Tenant, k.Region, time.Second)
	}
	if rep := p.Health(); rep.Status != "ok" {
		t.Errorf("thin windows must not breach: %+v", rep)
	}
}

func TestDropTenant(t *testing.T) {
	p := NewPlane(Config{Window: time.Hour})
	p.Observe(VerbConnect, "gone", "p/r1", time.Microsecond)
	p.Observe(VerbConnect, "gone", "p/r2", time.Microsecond)
	p.Observe(VerbConnect, "stays", "p/r1", time.Microsecond)
	p.SetObjective("gone", Objective{ConnectP99: time.Second})
	if p.ShardCount() != 3 {
		t.Fatalf("shards = %d", p.ShardCount())
	}
	p.DropTenant("gone")
	if p.ShardCount() != 1 {
		t.Errorf("shards after drop = %d, want 1", p.ShardCount())
	}
	if len(p.Snapshot()) != 1 || p.Snapshot()[0].Key.Tenant != "stays" {
		t.Error("wrong shard survived the drop")
	}
	// Objectives survive: a re-onboarding tenant keeps its targets.
	if _, ok := p.ObjectiveOf("gone"); !ok {
		t.Error("objective must survive DropTenant")
	}
}

// TestStripedMergeMatchesSerialOracle is the -race property test: many
// goroutines record into per-shard striped histograms while each also
// feeds a single serial oracle histogram (mutex-guarded); merging the
// striped shards afterwards must equal the oracle exactly — bucketed
// counts make the merge lossless, which is what lets /v1/slo sum shards.
func TestStripedMergeMatchesSerialOracle(t *testing.T) {
	p := NewPlane(Config{Window: time.Hour})
	var mu sync.Mutex
	var oracle metrics.Hist
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				d := time.Duration((w*perWorker+i)%5000) * 200
				tenant := fmt.Sprintf("t%d", i%7)
				region := fmt.Sprintf("p/r%d", i%3)
				p.Observe(VerbConnect, tenant, region, d)
				mu.Lock()
				oracle.Record(d)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	var merged metrics.HistSnap
	for _, s := range p.Snapshot() {
		merged.Merge(s.Verbs[VerbConnect])
	}
	if merged != oracle.Snapshot() {
		t.Fatalf("striped merge diverged from serial oracle: merged count %d, oracle %d",
			merged.Count, oracle.Snapshot().Count)
	}
	if merged.Count != workers*perWorker {
		t.Fatalf("lost samples: %d != %d", merged.Count, workers*perWorker)
	}
}
