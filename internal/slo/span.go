// Request-scoped spans and the flight recorder.
//
// Every instrumented verb runs inside an Op — a cheap value created at
// the boundary (api or core wrapper) and Ended exactly once by its
// creator. The Op always records service time into its shard's
// histograms; per-stage detail is head-sampled at cfg.SampleEvery, but
// an op that errors or exceeds slowSpan is retained in the flight
// recorder even when unsampled, so postmortems always have the
// interesting cases. The flight recorder is a bounded overwrite-oldest
// ring dumped via GET /v1/debug/flight.
package slo

import "time"

// Op is one in-flight instrumented verb. The zero Op (from a nil
// plane's Begin) is inert: every method no-ops. Pass it by pointer so
// stages and the final End see the same state; only the creator calls
// End.
type Op struct {
	p    *Plane
	verb Verb
	key  Key
	t0   time.Time
	sp   *span
	done bool
}

// span carries the head-sampled per-stage detail.
type span struct {
	stages []StageRecord
}

// Begin opens an op for one verb invocation. region may be "" when the
// caller hasn't resolved the shard yet (SetRegion later). Nil-safe: a
// nil plane returns an inert Op.
//
// One opN ticket decides both samplings: 1-in-HistSampleEvery ops are
// timed (clock read here, clock read + histogram record in End) and
// 1-in-SampleEvery additionally carry per-stage span detail. A
// sampled-out op pays the atomic add and two modulos — the design
// constraint that keeps always-on instrumentation inside the drill's
// overhead budget. With the default rates (64 a multiple of 32) every
// span-detailed op is also timed; configs that break that alignment
// still time any span-sampled op so retained spans always carry a
// duration.
func (p *Plane) Begin(v Verb, tenant, region string) Op {
	if p == nil {
		return Op{}
	}
	op := Op{p: p, verb: v, key: Key{Tenant: tenant, Region: region}}
	n := p.opN.Add(1)
	if p.cfg.SampleEvery == 1 || n%uint64(p.cfg.SampleEvery) == 1 {
		op.sp = &span{}
	}
	if op.sp != nil || p.cfg.HistSampleEvery == 1 || n%uint64(p.cfg.HistSampleEvery) == 1 {
		op.t0 = time.Now()
	}
	return op
}

// Sampled reports whether this op carries per-stage detail.
func (op *Op) Sampled() bool { return op != nil && op.sp != nil }

// SetRegion fixes the op's shard once the verb body has resolved it
// (e.g. connect learns the source endpoint's region mid-flight).
func (op *Op) SetRegion(region string) {
	if op == nil || op.p == nil {
		return
	}
	op.key.Region = region
}

// StageStart opens a stage clock. It returns the zero time when the op
// is unsampled, making the paired StageEnd free — instrumented bodies
// pay two calls and a branch per stage when detail is off.
func (op *Op) StageStart() time.Time {
	if op == nil || op.sp == nil {
		return time.Time{}
	}
	return time.Now()
}

// StageEnd records a named stage begun at t0 (from StageStart); no-op
// for the zero time.
func (op *Op) StageEnd(t0 time.Time, name string) {
	if op == nil || op.sp == nil || t0.IsZero() {
		return
	}
	op.sp.stages = append(op.sp.stages, StageRecord{
		Name:  name,
		DurUS: float64(time.Since(t0).Nanoseconds()) / 1e3,
	})
}

// End closes the op: records service time into the shard's histograms
// (when the op drew a timing ticket in Begin), counts mutations for the
// detector, and retains the span in the flight recorder when sampled,
// errored, or slow. An errored op that drew no ticket is still retained
// — postmortems always get the failures — but with a zero duration,
// since its clocks never ran. Idempotent; nil-safe.
func (op *Op) End(err error) {
	if op == nil || op.p == nil || op.done {
		return
	}
	op.done = true
	timed := !op.t0.IsZero()
	var d time.Duration
	if timed {
		now := time.Now()
		d = now.Sub(op.t0)
		op.p.observe(op.verb, op.key, d, now)
	}
	why := ""
	switch {
	case err != nil:
		why = "error"
	case timed && d >= op.p.slowSpan:
		why = "slow"
	case op.sp != nil:
		why = "sampled"
	default:
		return
	}
	rec := SpanRecord{
		Verb:   op.verb.String(),
		Tenant: op.key.Tenant,
		Region: op.key.Region,
		Start:  op.t0,
		DurUS:  float64(d.Nanoseconds()) / 1e3,
		Why:    why,
	}
	if op.sp != nil {
		rec.Stages = op.sp.stages
	}
	if err != nil {
		rec.Err = err.Error()
	}
	op.p.retain(rec)
}

// StageRecord is one timed stage inside a retained span.
type StageRecord struct {
	Name  string  `json:"name"`
	DurUS float64 `json:"dur_us"`
}

// SpanRecord is one retained span in the flight recorder.
type SpanRecord struct {
	Verb   string        `json:"verb"`
	Tenant string        `json:"tenant"`
	Region string        `json:"region,omitempty"`
	Start  time.Time     `json:"start"`
	DurUS  float64       `json:"dur_us"`
	Stages []StageRecord `json:"stages,omitempty"`
	Err    string        `json:"err,omitempty"`
	// Why records the retention reason: "sampled", "error", or "slow".
	Why string `json:"why"`
}

// flightCap bounds the flight recorder. Retention is rare (head-sampled
// + errors + slow path), so a mutex around the ring is cheap enough.
const flightCap = 256

func (p *Plane) retain(rec SpanRecord) {
	p.flightMu.Lock()
	p.flight.Push(rec, flightCap)
	p.flightN++
	p.flightMu.Unlock()
}

// Flight returns up to n retained spans, oldest first (all when n <= 0).
// Nil-safe.
func (p *Plane) Flight(n int) []SpanRecord {
	if p == nil {
		return nil
	}
	p.flightMu.Lock()
	defer p.flightMu.Unlock()
	return p.flight.Last(n)
}

// FlightRetained reports total spans ever retained (including ones the
// ring has since overwritten).
func (p *Plane) FlightRetained() uint64 {
	if p == nil {
		return 0
	}
	p.flightMu.Lock()
	defer p.flightMu.Unlock()
	return p.flightN
}
