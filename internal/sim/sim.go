// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is single-threaded by design: all state transitions happen in
// event callbacks executed in timestamp order, which makes every run with
// the same seed bit-for-bit reproducible. Components that need randomness
// must draw it from a rand.Rand derived from the engine seed rather than
// from global sources.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Time is virtual simulation time measured as a duration since the start of
// the run. Using time.Duration gives nanosecond resolution and convenient
// formatting while remaining a plain int64 internally.
type Time = time.Duration

// Event is a scheduled callback. Events with equal timestamps fire in the
// order they were scheduled.
type Event struct {
	at     Time
	seq    uint64
	fn     func()
	dead   bool
	daemon bool
	idx    int // heap index, -1 when not queued
	eng    *Engine
}

// Cancel prevents the event from firing and removes it from the queue so
// it neither keeps a run alive nor forces the clock to grind out to its
// timestamp. Canceling an already-fired or already-canceled event is a
// no-op.
func (e *Event) Cancel() {
	if e == nil || e.dead {
		return
	}
	e.dead = true
	if e.eng != nil && e.idx >= 0 {
		heap.Remove(&e.eng.queue, e.idx)
		if !e.daemon {
			e.eng.userPending--
		}
	}
}

// At reports the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}

func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.idx = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*q = old[:n-1]
	return e
}

// Engine is a discrete-event scheduler with a virtual clock.
// The zero value is not ready for use; call New.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue
	rng     *rand.Rand
	stopped bool
	nFired  uint64
	// userPending counts queued non-daemon events. Run (without a
	// deadline) drains until none remain, so perpetual daemon tickers
	// (control loops, health checkers) never wedge a run.
	userPending int
}

// lockedSource serializes access to a rand source so the engine's Rand
// may be shared by concurrent read-plane callers (probe RTT/loss draws)
// without perturbing the deterministic sequence a single-threaded run
// would produce.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}

// New returns an engine whose random source is seeded with seed.
func New(seed int64) *Engine {
	src := rand.NewSource(seed).(rand.Source64)
	return &Engine{rng: rand.New(&lockedSource{src: src})}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. Components should
// derive all randomness from it (or from sub-sources created via NewRand)
// so runs stay reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// NewRand returns an independent deterministic random source derived from
// the engine seed stream. Use one per component when interleaving order
// between components must not perturb their individual draw sequences.
func (e *Engine) NewRand() *rand.Rand {
	return rand.New(rand.NewSource(e.rng.Int63()))
}

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// (before Now) is an error surfaced by panic, because it always indicates a
// logic bug in the caller rather than a recoverable condition.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	return e.schedule(at, fn, false)
}

// ScheduleDaemon schedules a background event that does not keep Run
// alive: once only daemon events remain, a deadline-less Run returns.
// Use it for recurring control loops whose work only matters while
// foreground activity exists.
func (e *Engine) ScheduleDaemon(at Time, fn func()) *Event {
	return e.schedule(at, fn, true)
}

func (e *Engine) schedule(at Time, fn func(), daemon bool) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	ev := &Event{at: at, seq: e.seq, fn: fn, daemon: daemon, idx: -1, eng: e}
	e.seq++
	heap.Push(&e.queue, ev)
	if !daemon {
		e.userPending++
	}
	return ev
}

// After runs fn after delay d from the current virtual time.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// Every schedules fn at the given period, starting one period from now,
// until the returned Ticker is stopped.
func (e *Engine) Every(period Time, fn func()) *Ticker {
	return e.every(period, fn, false)
}

// EveryDaemon is Every for background control loops: its firings do not
// keep a deadline-less Run alive.
func (e *Engine) EveryDaemon(period Time, fn func()) *Ticker {
	return e.every(period, fn, true)
}

func (e *Engine) every(period Time, fn func(), daemon bool) *Ticker {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	t := &Ticker{eng: e, period: period, fn: fn, daemon: daemon}
	t.arm()
	return t
}

// Ticker repeatedly fires a callback at a fixed virtual period.
type Ticker struct {
	eng     *Engine
	period  Time
	fn      func()
	ev      *Event
	daemon  bool
	stopped bool
}

func (t *Ticker) arm() {
	t.ev = t.eng.schedule(t.eng.now+t.period, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	}, t.daemon)
}

// Stop prevents future firings. A callback already executing completes.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}

// Stop halts the run loop after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.nFired }

// Pending reports how many events are queued (including canceled ones not
// yet discarded).
func (e *Engine) Pending() int { return len(e.queue) }

// Run executes events in timestamp order until the queue drains or Stop is
// called. It returns the number of events fired during this call.
func (e *Engine) Run() uint64 {
	return e.RunUntil(-1)
}

// RunUntil executes events with timestamps <= deadline (all events when
// deadline < 0). The clock is left at the last fired event's time, or at
// deadline if it is later and non-negative. Without a deadline, the run
// ends once only daemon events remain — perpetual control loops do not
// keep it alive.
func (e *Engine) RunUntil(deadline Time) uint64 {
	e.stopped = false
	var fired uint64
	for len(e.queue) > 0 && !e.stopped {
		if deadline < 0 && e.userPending == 0 {
			break
		}
		next := e.queue[0]
		if deadline >= 0 && next.at > deadline {
			break
		}
		heap.Pop(&e.queue)
		if !next.daemon {
			e.userPending--
		}
		if next.dead {
			continue
		}
		e.now = next.at
		next.fn()
		fired++
		e.nFired++
	}
	if deadline >= 0 && e.now < deadline {
		e.now = deadline
	}
	return fired
}
