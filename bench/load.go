package main

import (
	"sync"
	"time"

	"declnet/internal/workload"
)

// Latency limits behind slo_ok_share: an open-loop request that takes
// longer misses, as does one that fails, is wrong, or is never sent.
var sloLimit = [nClasses]time.Duration{Read: 10 * time.Millisecond, Write: 50 * time.Millisecond}

// openGrace is how long past the window an open-loop worker may keep
// draining its backlog; what is still unsent then is counted as missed.
const openGrace = time.Second

// phaseStats is what one worker saw in one phase. Latencies are of
// correct responses only.
type phaseStats struct {
	lat       [nClasses][]time.Duration
	late      []time.Duration // open loop: how long after its due time each request was sent
	attempted int             // requests sent
	failed    int             // transport errors, timeouts, off-model responses
	verbs     int             // Table-2 verbs in correct responses
	mutations int             // of those, mutations
	denies    int             // modelled 403s
	scheduled int             // open loop: requests the schedule held
	sloMiss   int             // open loop: failed, slow, or unsent
	firstErr  error
	wall      time.Duration
}

func (s *phaseStats) merge(o *phaseStats) {
	for c := range s.lat {
		s.lat[c] = append(s.lat[c], o.lat[c]...)
	}
	s.late = append(s.late, o.late...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.verbs += o.verbs
	s.mutations += o.mutations
	s.denies += o.denies
	s.scheduled += o.scheduled
	s.sloMiss += o.sloMiss
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
	if o.wall > s.wall {
		s.wall = o.wall
	}
}

func (s *phaseStats) requests() int {
	n := 0
	for c := range s.lat {
		n += len(s.lat[c])
	}
	return n
}

func (s *phaseStats) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// worker is one connection's worth of load: it owns its tenants' slots
// in the model, so its verbs reach the daemon in the order it issued them.
type worker struct {
	model *Model
	exec  Executor
	src   Source
}

// do issues one op and verifies the response. The latency clock starts
// at start if that is set (an open-loop due time), else at the send.
func (w *worker) do(op Op, st *phaseStats, start time.Time) (time.Duration, bool) {
	st.attempted++
	call, err := w.model.Bind(op)
	if err != nil {
		st.fail(err)
		return 0, false
	}
	if start.IsZero() {
		start = time.Now()
	}
	res := w.exec.Do(&call.Call)
	lat := time.Since(start)
	if err := w.model.Done(op, call, &res); err != nil {
		st.fail(err)
		return lat, false
	}
	class := op.Kind.Class()
	st.lat[class] = append(st.lat[class], lat)
	n := call.Verbs()
	st.verbs += n
	if class != Read {
		st.mutations += n
	}
	if res.Status == 403 {
		st.denies++
	}
	return lat, true
}

// closedLoop sends the next op as soon as the last returns, until dur
// has passed.
func (w *worker) closedLoop(begin time.Time, dur time.Duration) *phaseStats {
	st := &phaseStats{}
	for time.Since(begin) < dur {
		w.do(w.src.Next(), st, time.Time{})
	}
	st.wall = time.Since(begin)
	return st
}

// closedCount is closedLoop for exactly n ops.
func (w *worker) closedCount(n int) *phaseStats {
	st := &phaseStats{}
	begin := time.Now()
	for i := 0; i < n; i++ {
		w.do(w.src.Next(), st, time.Time{})
	}
	st.wall = time.Since(begin)
	return st
}

// openClock is the open-loop timing rule. A request whose due time found
// the worker still busy is timed from its due time, so the wait a stall
// imposes on the requests queued behind it is counted; one the worker
// was idle for is timed from the actual send, so a late timer wake-up is
// the generator's lateness, not the daemon's latency. late is reported
// either way.
func openClock(due, free, sent time.Time) (start time.Time, late time.Duration) {
	late = sent.Sub(due)
	if free.Before(due) {
		return sent, late
	}
	return due, late
}

// openLoop sends on a fixed schedule whatever the daemon does: arrivals
// are offsets from begin. It stops early only when openGrace past the
// window has gone by; the unsent rest are misses.
func (w *worker) openLoop(begin time.Time, arrivals []time.Duration, window time.Duration) *phaseStats {
	st := &phaseStats{scheduled: len(arrivals)}
	giveUp := begin.Add(window + openGrace)
	for i, at := range arrivals {
		due := begin.Add(at)
		free := time.Now()
		if free.After(giveUp) {
			st.sloMiss += len(arrivals) - i
			break
		}
		if free.Before(due) {
			time.Sleep(due.Sub(free))
		}
		start, late := openClock(due, free, time.Now())
		st.late = append(st.late, late)
		op := w.src.Next()
		lat, ok := w.do(op, st, start)
		if !ok || lat > sloLimit[op.Kind.Class()] {
			st.sloMiss++
		}
	}
	st.wall = time.Since(begin)
	return st
}

// phase says what each worker does for one measured phase: an open loop
// at rate[i] requests/s when rate[i] > 0, else a closed loop.
type phase struct {
	dur  time.Duration
	n    []int     // per worker: closed loop by count instead of time (warm-up)
	rate []float64 // per worker
	seed int64     // open-loop schedule seed
}

// run drives every worker through the phase at once and returns the
// merged statistics plus the open-loop workers' alone (the observer's
// view in batch_storm).
func (p phase) run(workers []*worker) (all, open *phaseStats) {
	per := make([]*phaseStats, len(workers))
	var wg sync.WaitGroup
	begin := time.Now()
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			switch {
			case p.rate != nil && p.rate[i] > 0:
				arrivals := workload.Arrivals(p.seed+int64(i), p.rate[i], p.dur)
				per[i] = w.openLoop(begin, arrivals, p.dur)
			case p.n != nil:
				per[i] = w.closedCount(p.n[i])
			default:
				per[i] = w.closedLoop(begin, p.dur)
			}
		}(i, w)
	}
	wg.Wait()
	all, open = &phaseStats{}, &phaseStats{}
	for i, st := range per {
		all.merge(st)
		if p.rate != nil && p.rate[i] > 0 {
			open.merge(st)
		}
	}
	return all, open
}
