// Package slo is the live SLO plane: shard-aligned latency accounting
// for every Table-2 verb, a continuous permit-propagation-lag sampler,
// request-scoped spans feeding a bounded flight recorder, and declared
// per-tenant objectives with burn-rate evaluation and a noisy-neighbor
// detector.
//
// The paper's bargain — tenants declare intent, the provider owns the
// "how" — only holds if tenants can see, per (tenant, region), whether
// the provider is holding up its end. E13 measures connect latency,
// permit lag, and storm isolation offline in a drill; this package is
// the same three signals measured continuously on the live system, at a
// cost low enough to leave on (gated ≤5% on the drill hot path).
//
// Layout mirrors the core's concurrency design: per-(tenant, region)
// ShardStats live in a 64-way striped table, and each
// histogram is a metrics.Hist — a fixed-bucket array of atomics — so the
// record path after the stats pointer is resolved is lock-free. A nil *Plane is valid everywhere and records nothing, so
// instrumented call sites pay one nil check when the plane is off.
package slo

import (
	"sync"
	"sync/atomic"
	"time"

	"declnet/internal/addr"
	"declnet/internal/metrics"
	"declnet/internal/obs"
)

// Verb classifies which public verb a latency sample came from. Grant
// covers the address lifecycle (request/release of EIPs and SIPs), Bind
// the SIP attach plane (bind/unbind/groups), QoS the bandwidth intents
// (set_qos, set_potato, per-VM caps).
type Verb uint8

const (
	VerbConnect Verb = iota
	VerbProbe
	VerbPermit
	VerbBind
	VerbGrant
	VerbQoS
	VerbBatch
	nVerbs
)

var verbNames = [nVerbs]string{"connect", "probe", "permit", "bind", "grant", "qos", "batch"}

func (v Verb) String() string {
	if int(v) < len(verbNames) {
		return verbNames[v]
	}
	return "unknown"
}

// mutation reports whether the verb mutates control-plane state — the
// signal the noisy-neighbor detector attributes storms by.
func (v Verb) mutation() bool {
	switch v {
	case VerbPermit, VerbBind, VerbGrant, VerbQoS, VerbBatch:
		return true
	}
	return false
}

// Key identifies one (tenant, region) shard, in the same derivation the
// core's ShardKey uses: Region is "provider/region" for addresses inside
// a region block, the bare provider name for the SIP plane, and "" when
// the verb resolved no shard (e.g. a batch).
type Key struct {
	Tenant string `json:"tenant"`
	Region string `json:"region"`
}

func (k Key) String() string { return k.Tenant + "@" + k.Region }

// ShardStats is one (tenant, region) shard's accounting: cumulative
// per-verb service-time histograms, a cumulative permit-lag histogram,
// and double-buffered window histograms (current/baseline) driving the
// detector. All fields are recorded lock-free.
type ShardStats struct {
	key Key

	verbs [nVerbs]metrics.Hist
	lag   metrics.Hist

	// Double-buffered windows, indexed by the plane's winIdx: winConn
	// holds connect+probe service time, winLag permit lag, winMut the
	// mutation-op count (the detector's attribution signal).
	winConn [2]metrics.Hist
	winLag  [2]metrics.Hist
	winMut  [2]atomic.Uint64
}

// planeStripes is the stats table's stripe count, so one shard's
// recording rarely contends with another's. Its stripes hash a (tenant,
// region) key, which is not an address, so they are not an addr.Table.
const planeStripes = 64

type statsStripe struct {
	mu sync.RWMutex
	m  map[Key]*ShardStats
}

// lagStripeCap bounds pending permit-lag samples per stripe; entries
// whose target is never admission-checked would otherwise accumulate.
const lagStripeCap = 256

type lagStripe struct {
	mu sync.Mutex
	m  map[addr.IP]lagSample
}

type lagSample struct {
	at     time.Time
	tenant string
}

// Config parameterizes a Plane; zero values take the defaults below.
type Config struct {
	// SampleEvery head-samples 1-in-N ops for per-stage span detail
	// (default 64; 1 samples everything). Error and slow ops are always
	// retained regardless.
	SampleEvery int
	// HistSampleEvery head-samples 1-in-N ops for service-time
	// accounting: only sampled ops pay the clock reads and histogram
	// records, which is what keeps instrumentation inside the drill's
	// ≤5% overhead budget — exact per-op timing alone costs two clock
	// reads, more than the whole budget on a microsecond-scale verb.
	// Histogram and window counts are in recorded (1-in-N) units;
	// quantiles and burn rates are sampling-neutral. Default 32; tests
	// and drills pin 1 for exact counts. The first op is always sampled.
	HistSampleEvery int
	// LagSampleEvery stamps 1-in-N accepted permit updates for
	// propagation-lag measurement (default 16).
	LagSampleEvery int
	// Window is the detector window; rotation happens lazily on the
	// record path (default 10s). Tests and drills set it large and call
	// AdvanceWindow explicitly.
	Window time.Duration
}

// The plane's fixed thresholds. The flight recorder always retains an op
// at least slowSpan slow. The detector judges a shard only when both its
// windows hold at least minWindowSamples connects; a shard whose
// current-window p99 exceeds its trailing baseline by breachFactor (the
// E13 storm/idle bound) is breached, and a shard must have logged at
// least minStormOps mutation ops in the current window to be named its
// suspect.
const (
	slowSpan         = time.Millisecond
	minWindowSamples = 32
	breachFactor     = 1.5
	minStormOps      = 64
)

func (c Config) withDefaults() Config {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 64
	}
	if c.HistSampleEvery <= 0 {
		c.HistSampleEvery = 32
	}
	if c.LagSampleEvery <= 0 {
		c.LagSampleEvery = 16
	}
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	return c
}

// Plane is the live SLO plane. One Plane serves a whole Cloud; all
// methods are safe for concurrent use, and every method is nil-safe so
// call sites need no enablement branches.
type Plane struct {
	cfg Config
	// slowSpan is the constant of that name; tests move it.
	slowSpan time.Duration

	stripes [planeStripes]statsStripe

	// winIdx selects the current window buffer (0/1); gen counts
	// rotations. rotMu serializes rotation itself.
	winIdx     atomic.Uint32
	gen        atomic.Uint64
	rotMu      sync.Mutex
	lastRotate atomic.Int64 // wall ns of the last rotation

	// opN/lagN drive head sampling: opN counts every Begin and decides
	// both histogram and span sampling, lagN counts permit stamps.
	opN  atomic.Uint64
	lagN atomic.Uint64

	// lagPending holds stamped-but-unresolved permit updates, striped by
	// the target's /16 (addr.Stripe) like an addr.Table but with each
	// stripe capped at lagStripeCap, which is not a map operation.
	// lagCount gates the admission check's resolve step to one atomic
	// load when nothing pends.
	lagPending [addr.Stripes]lagStripe
	lagCount   atomic.Int64

	// flight is the flight recorder: the last flightCap retained spans
	// under flightMu, and flightN counts every span ever retained.
	flightMu sync.Mutex
	flight   obs.Ring[SpanRecord]
	flightN  uint64

	objMu      sync.RWMutex
	objectives map[string]Objective

	// breachMu guards breach de-duplication (one event per victim per
	// window generation) and the onBreach callback pointer.
	breachMu  sync.Mutex
	breachGen map[Key]uint64
	onBreach  func(tenant, detail, cause string)
}

// NewPlane builds a plane; zero Config fields take defaults.
func NewPlane(cfg Config) *Plane {
	p := &Plane{cfg: cfg.withDefaults(), slowSpan: slowSpan}
	for i := range p.stripes {
		p.stripes[i].m = make(map[Key]*ShardStats)
	}
	for i := range p.lagPending {
		p.lagPending[i].m = make(map[addr.IP]lagSample)
	}
	p.objectives = make(map[string]Objective)
	p.breachGen = make(map[Key]uint64)
	p.lastRotate.Store(time.Now().UnixNano())
	return p
}

// stripeFor hashes a key onto a stripe (FNV-1a over both fields).
func stripeFor(k Key) int {
	h := uint32(2166136261)
	for i := 0; i < len(k.Tenant); i++ {
		h = (h ^ uint32(k.Tenant[i])) * 16777619
	}
	h = (h ^ '@') * 16777619
	for i := 0; i < len(k.Region); i++ {
		h = (h ^ uint32(k.Region[i])) * 16777619
	}
	return int(h & (planeStripes - 1))
}

// stats returns the shard's stats record, creating it on first use.
func (p *Plane) stats(k Key) *ShardStats {
	s := &p.stripes[stripeFor(k)]
	s.mu.RLock()
	st := s.m[k]
	s.mu.RUnlock()
	if st != nil {
		return st
	}
	s.mu.Lock()
	if st = s.m[k]; st == nil {
		st = &ShardStats{key: k}
		s.m[k] = st
	}
	s.mu.Unlock()
	return st
}

// Observe records one service-time sample directly (no span machinery):
// the path End takes, exposed for tests and out-of-band recording.
func (p *Plane) Observe(v Verb, tenant, region string, d time.Duration) {
	if p == nil {
		return
	}
	p.observe(v, Key{Tenant: tenant, Region: region}, d, time.Now())
}

func (p *Plane) observe(v Verb, k Key, d time.Duration, now time.Time) {
	st := p.stats(k)
	st.verbs[v].Record(d)
	cur := p.winIdx.Load() & 1
	if v == VerbConnect || v == VerbProbe {
		st.winConn[cur].Record(d)
	}
	if v.mutation() {
		st.winMut[cur].Add(1)
	}
	p.maybeRotate(now)
}

// StampPermit marks an accepted permit update against target so the next
// admission check of that address resolves the propagation lag —
// the E13 metric, measured continuously. Head-sampled at
// cfg.LagSampleEvery, and the sampling decision comes first so a
// sampled-out update pays one atomic add and nothing else (no clock
// read, no shard-key derivation — the resolve side supplies the region).
// Nil-safe.
func (p *Plane) StampPermit(tenant string, target addr.IP) {
	if p == nil {
		return
	}
	if every := uint64(p.cfg.LagSampleEvery); every > 1 && p.lagN.Add(1)%every != 1 {
		return
	}
	s := &p.lagPending[addr.Stripe(target)]
	s.mu.Lock()
	if _, exists := s.m[target]; !exists {
		if len(s.m) >= lagStripeCap {
			s.mu.Unlock()
			return
		}
		p.lagCount.Add(1)
	}
	s.m[target] = lagSample{at: time.Now(), tenant: tenant}
	s.mu.Unlock()
}

// ResolveLag closes a pending permit-lag sample for target, recording
// the elapsed time into the (stamped tenant, region) shard's lag
// histograms. Called from the core's admission check, which owns the
// region derivation; gate calls on PendingLagSamples() to skip the
// derivation when nothing is pending. Nil-safe.
func (p *Plane) ResolveLag(target addr.IP, region string) {
	if p == nil || p.lagCount.Load() == 0 {
		return
	}
	s := &p.lagPending[addr.Stripe(target)]
	s.mu.Lock()
	smp, ok := s.m[target]
	if ok {
		delete(s.m, target)
	}
	s.mu.Unlock()
	if !ok {
		return
	}
	p.lagCount.Add(-1)
	d := time.Since(smp.at)
	st := p.stats(Key{Tenant: smp.tenant, Region: region})
	st.lag.Record(d)
	st.winLag[p.winIdx.Load()&1].Record(d)
}

// PendingLagSamples reports stamped-but-unresolved permit updates.
func (p *Plane) PendingLagSamples() int {
	if p == nil {
		return 0
	}
	return int(p.lagCount.Load())
}

// maybeRotate advances the window when cfg.Window has elapsed; one
// atomic load on the hot path. Racing lazy rotations collapse on the
// re-check under rotMu.
func (p *Plane) maybeRotate(now time.Time) {
	if now.UnixNano()-p.lastRotate.Load() < int64(p.cfg.Window) {
		return
	}
	p.rotMu.Lock()
	defer p.rotMu.Unlock()
	if time.Now().UnixNano()-p.lastRotate.Load() < int64(p.cfg.Window) {
		return
	}
	p.rotateLocked()
}

// AdvanceWindow forces a window rotation: the current window becomes
// the trailing baseline and a fresh current window opens. Drills and
// tests drive the detector deterministically with it.
func (p *Plane) AdvanceWindow() {
	if p == nil {
		return
	}
	p.rotMu.Lock()
	defer p.rotMu.Unlock()
	p.rotateLocked()
}

func (p *Plane) rotateLocked() {
	cur := p.winIdx.Load() & 1
	next := 1 - cur
	// The old baseline buffer becomes the fresh current window: clear it
	// first, then flip, so late writers land in a defined buffer.
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.RLock()
		for _, st := range s.m {
			st.winConn[next].Reset()
			st.winLag[next].Reset()
			st.winMut[next].Store(0)
		}
		s.mu.RUnlock()
	}
	p.winIdx.Store(next)
	p.gen.Add(1)
	p.lastRotate.Store(time.Now().UnixNano())
}

// WindowGen returns the rotation count (the detector's de-dup key).
func (p *Plane) WindowGen() uint64 {
	if p == nil {
		return 0
	}
	return p.gen.Load()
}

// DropTenant releases all of a tenant's shard accounting (called when
// the tenant's last granted address is released) and its breach
// bookkeeping. Declared objectives survive, so a re-onboarding tenant
// keeps its targets. Nil-safe.
func (p *Plane) DropTenant(tenant string) {
	if p == nil {
		return
	}
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		for k := range s.m {
			if k.Tenant == tenant {
				delete(s.m, k)
			}
		}
		s.mu.Unlock()
	}
	p.breachMu.Lock()
	for k := range p.breachGen {
		if k.Tenant == tenant {
			delete(p.breachGen, k)
		}
	}
	p.breachMu.Unlock()
}

// ShardCount reports how many (tenant, region) shards have recorded.
func (p *Plane) ShardCount() int {
	if p == nil {
		return 0
	}
	n := 0
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// ShardSnap is one shard's full snapshot: cumulative verb and lag
// histograms plus the current (Win*) and trailing-baseline (Base*)
// windows.
type ShardSnap struct {
	Key     Key
	Verbs   [nVerbs]metrics.HistSnap
	Lag     metrics.HistSnap
	WinConn metrics.HistSnap
	BaseCon metrics.HistSnap
	WinLag  metrics.HistSnap
	BaseLag metrics.HistSnap
	WinMut  uint64
	BaseMut uint64
}

// Snapshot captures every shard, sorted by key for deterministic
// iteration; reports and the detector build on it.
func (p *Plane) Snapshot() []ShardSnap {
	if p == nil {
		return nil
	}
	cur := p.winIdx.Load() & 1
	base := 1 - cur
	var out []ShardSnap
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.RLock()
		for _, st := range s.m {
			out = append(out, ShardSnap{
				Key:     st.key,
				Verbs:   snapVerbs(&st.verbs),
				Lag:     st.lag.Snapshot(),
				WinConn: st.winConn[cur].Snapshot(),
				BaseCon: st.winConn[base].Snapshot(),
				WinLag:  st.winLag[cur].Snapshot(),
				BaseLag: st.winLag[base].Snapshot(),
				WinMut:  st.winMut[cur].Load(),
				BaseMut: st.winMut[base].Load(),
			})
		}
		s.mu.RUnlock()
	}
	sortSnaps(out)
	return out
}

func snapVerbs(h *[nVerbs]metrics.Hist) [nVerbs]metrics.HistSnap {
	var out [nVerbs]metrics.HistSnap
	for i := range h {
		out[i] = h[i].Snapshot()
	}
	return out
}

func sortSnaps(s []ShardSnap) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && keyLess(s[j].Key, s[j-1].Key); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func keyLess(a, b Key) bool {
	if a.Tenant != b.Tenant {
		return a.Tenant < b.Tenant
	}
	return a.Region < b.Region
}
