// Package simplane is the simulated network a core.Cloud programs
// in-process: it implements core's data-plane seam (core.DataPlane) over
// the discrete-event engine (package sim), the flow-level max-min fair
// network (package netsim) and the fault injector (package fault). The
// experiments, the examples, the tests and the root package's World build
// their clouds on it; declnetd builds its cloud with no data plane.
//
// The package does not import core — core's own tests build clouds on
// it — so the seam's signatures name only time, math/rand, topo and qos
// types.
package simplane

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"declnet/internal/fault"
	"declnet/internal/metrics"
	"declnet/internal/netsim"
	"declnet/internal/qos"
	"declnet/internal/sim"
	"declnet/internal/topo"
)

// Plane is one simulated world's data plane: its engine, its network and
// its fault injector, which drills drive directly.
type Plane struct {
	Eng *sim.Engine
	Net *netsim.Network
	Inj *fault.Injector

	// mu serializes what concurrent verbs and reads write into Eng and
	// Net through the seam — a new quota limiter's period, a deferred
	// permit's first retry, Connect's flow start and its cap changes —
	// and the metrics scrape's reads of the engine and solver gauges.
	// Advancing the engine takes no lock: only the simulation driver does
	// it, with no verb in flight, and its callbacks may call verbs.
	mu sync.Mutex
}

// New builds the data plane over graph g, its engine's random source
// seeded with seed.
func New(seed int64, g *topo.Graph) *Plane {
	eng := sim.New(seed)
	net := netsim.New(g, eng)
	return &Plane{Eng: eng, Net: net, Inj: fault.NewInjector(eng, g, net)}
}

// Now reads the virtual clock.
func (p *Plane) Now() time.Duration { return p.Eng.Now() }

// After schedules fn d from now on the engine.
func (p *Plane) After(d time.Duration, fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Eng.After(d, fn)
}

// Every arms a daemon ticker: it never keeps a deadline-less Run alive on
// its own.
func (p *Plane) Every(period time.Duration, fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Eng.EveryDaemon(period, fn)
}

// Reachable and Cause are the injector's view of node n.
func (p *Plane) Reachable(n topo.NodeID) bool { return p.Inj.Reachable(n) }
func (p *Plane) Cause(n topo.NodeID) []string { return p.Inj.Cause(n) }

// Rand is the engine's random source, so probes draw from the one
// deterministic stream.
func (p *Plane) Rand() *rand.Rand { return p.Eng.Rand() }

// StartFlow starts a netsim flow.
func (p *Plane) StartFlow(path topo.Path, sizeBytes, maxRate float64, onDone func(time.Duration)) (qos.Flow, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, err := p.Net.StartFlow(&netsim.Flow{Path: path, Size: sizeBytes, MaxRate: maxRate, OnDone: onDone})
	if err != nil {
		return nil, err
	}
	return flow{f, p}, nil
}

// flow is a started netsim flow whose writes go through the plane's lock.
type flow struct {
	*netsim.Flow
	p *Plane
}

func (f flow) SetMaxRate(bps float64) {
	f.p.mu.Lock()
	defer f.p.mu.Unlock()
	f.p.Net.SetMaxRate(f.Flow, bps)
}

func (f flow) Stop() {
	f.p.mu.Lock()
	defer f.p.mu.Unlock()
	f.p.Net.Stop(f.Flow)
}

// RegisterMetrics exposes the engine, solver and injector gauges; a
// cloud's EnableObservability calls it.
func (p *Plane) RegisterMetrics(reg *metrics.Registry) {
	gauge := func(name, help string, read func() float64) {
		reg.GaugeFunc(name, help, func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return read()
		})
	}
	gauge("declnet_virtual_time_seconds", "Simulated clock.", func() float64 { return p.Eng.Now().Seconds() })
	gauge("declnet_event_queue_depth", "Simulator event-queue depth.", func() float64 { return float64(p.Eng.Pending()) })
	gauge("declnet_solver_recomputes_total", "Fair-share solver recomputations.", func() float64 { return float64(p.Net.Recomputes) })
	gauge("declnet_solver_flows_touched_total", "Flows visited by incremental solves.", func() float64 { return float64(p.Net.FlowsTouched) })
	gauge("declnet_solver_links_touched_total", "Links visited by incremental solves.", func() float64 { return float64(p.Net.LinksTouched) })
	gauge("declnet_flows_active", "Live flows in the network.", func() float64 { return float64(p.Net.Active()) })
	gauge("declnet_faults_injected_total", "Injected link+node+region failures.", func() float64 {
		return float64(p.Inj.LinkFailures + p.Inj.NodeFailures + p.Inj.RegionFailures)
	})
}

// Fault injects (fail) or lifts an infrastructure failure now. kind is
// "link" (target: link pair ID), "node" (target: node ID), or "region"
// (target: "provider/region").
func (p *Plane) Fault(kind, target string, fail bool) error {
	inj := p.Inj
	switch kind {
	case "link":
		if fail {
			return inj.FailLink(target)
		}
		return inj.RestoreLink(target)
	case "node":
		if fail {
			return inj.FailNode(topo.NodeID(target))
		}
		return inj.RestoreNode(topo.NodeID(target))
	case "region":
		i := strings.IndexByte(target, '/')
		if i <= 0 || i >= len(target)-1 {
			return fmt.Errorf("simplane: region target %q is not provider/region", target)
		}
		if fail {
			return inj.FailRegion(target[:i], target[i+1:])
		}
		return inj.RestoreRegion(target[:i], target[i+1:])
	default:
		return fmt.Errorf("simplane: unknown fault kind %q (want link, node, or region)", kind)
	}
}
