// Package mesh layers a service-mesh control plane over the declarative
// networking API — the bridge the paper gestures at when it notes that
// "technologies such as Kubernetes and service meshes have already made
// it commonplace to construct and enforce these API-level checks" (§4).
//
// A Mesh owns a set of named services. For each service it drives the
// Table-2 verbs underneath: request_sip + bind for the backend set,
// set_permit_list derived from declared service-to-service dependencies
// (callers are permitted by *workload identity*, never by address math),
// and the app-layer gateway for credential checks. On top it adds the
// L7 conveniences meshes are used for: retries with deadline, canary
// traffic splitting, and per-service circuit breaking.
//
// Nothing here touches a VPC, route table, or middlebox — which is the
// §5 prototype claim ("the API can construct our target class of
// applications (service-based architectures) easily") made executable.
package mesh

import (
	"fmt"
	"time"

	"declnet/internal/addr"
	"declnet/internal/app"
	"declnet/internal/core"
	"declnet/internal/permit"
	"declnet/internal/topo"
)

// Workload is one deployed instance of a service: a VM with an EIP.
type Workload struct {
	Node topo.NodeID
	EIP  core.EIP
	// Canary marks instances receiving split traffic.
	Canary bool
}

// Service is a named mesh member.
type Service struct {
	Name string
	// Port is documentation here; admission is per-EIP.
	Port int

	sip       core.SIP
	tenant    *core.Tenant
	workloads []*Workload
	gateway   *app.Gateway
	// callers are the service names allowed to invoke this service.
	callers map[string]bool
	// canaryWeight is the percentage (0-100) of traffic to canaries.
	canaryWeight int

	breaker breaker
}

// SIP returns the service's address.
func (s *Service) SIP() core.SIP { return s.sip }

// Gateway exposes the app-layer gateway (token issuing for tests/demos).
func (s *Service) Gateway() *app.Gateway { return s.gateway }

// Workloads returns the registered instances.
func (s *Service) Workloads() []*Workload { return s.workloads }

// breaker is a consecutive-failure circuit breaker.
type breaker struct {
	threshold int
	failures  int
	open      bool
	openedAt  time.Duration
	cooldown  time.Duration
}

func (b *breaker) allow(now time.Duration) bool {
	if !b.open {
		return true
	}
	if now-b.openedAt >= b.cooldown {
		// Half-open probe: allow one attempt.
		return true
	}
	return false
}

func (b *breaker) record(now time.Duration, ok bool) {
	if ok {
		b.failures = 0
		b.open = false
		return
	}
	b.failures++
	if b.threshold > 0 && b.failures >= b.threshold {
		b.open = true
		b.openedAt = now
	}
}

// Mesh is the control plane for one tenant's service graph.
type Mesh struct {
	Tenant string

	cloud    *core.Cloud
	services map[string]*Service
}

// New returns an empty mesh for a tenant over the cloud.
func New(cloud *core.Cloud, tenant string) *Mesh {
	return &Mesh{Tenant: tenant, cloud: cloud, services: make(map[string]*Service)}
}

// ServiceConfig declares one service.
type ServiceConfig struct {
	Name     string
	Provider string // which cloud hosts the SIP
	Port     int
	// Operations the service exposes at its gateway.
	Operations []app.Operation
	// BreakerThreshold opens the circuit after this many consecutive
	// failures (0 disables), with BreakerCooldown before half-open.
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

// AddService registers a service: one request_sip underneath plus an
// app-layer gateway.
func (m *Mesh) AddService(cfg ServiceConfig) (*Service, error) {
	if _, ok := m.services[cfg.Name]; ok {
		return nil, fmt.Errorf("mesh: duplicate service %q", cfg.Name)
	}
	tn := m.cloud.Tenant(m.Tenant)
	sip, err := tn.RequestSIP(cfg.Provider)
	if err != nil {
		return nil, err
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	s := &Service{
		Name: cfg.Name, Port: cfg.Port,
		sip: sip, tenant: tn,
		gateway: app.NewGateway(app.NewService(cfg.Name, cfg.Operations...)),
		callers: make(map[string]bool),
		breaker: breaker{threshold: cfg.BreakerThreshold, cooldown: cfg.BreakerCooldown},
	}
	m.services[cfg.Name] = s
	if err := tn.Register(cfg.Name, sip); err != nil {
		return nil, err
	}
	return s, nil
}

// Service returns a registered service.
func (m *Mesh) Service(name string) (*Service, bool) {
	s, ok := m.services[name]
	return s, ok
}

// Deploy adds a workload to a service: request_eip + bind underneath,
// then permit-list refresh for every declared caller.
func (m *Mesh) Deploy(service string, node topo.NodeID, canary bool) (*Workload, error) {
	s, ok := m.services[service]
	if !ok {
		return nil, fmt.Errorf("mesh: unknown service %q", service)
	}
	eip, err := s.tenant.RequestEIP(node)
	if err != nil {
		return nil, err
	}
	w := &Workload{Node: node, EIP: eip, Canary: canary}
	s.workloads = append(s.workloads, w)
	weight := 1
	if err := s.tenant.Bind(eip, s.sip, weight); err != nil {
		return nil, err
	}
	s.applyCanarySplit()
	// New workload: every service this one calls must admit it.
	return w, m.reconcilePermits()
}

// Retire drains a workload out of its service and releases its EIP.
func (m *Mesh) Retire(service string, w *Workload) error {
	s, ok := m.services[service]
	if !ok {
		return fmt.Errorf("mesh: unknown service %q", service)
	}
	for i, cur := range s.workloads {
		if cur == w {
			s.workloads = append(s.workloads[:i], s.workloads[i+1:]...)
			if err := s.tenant.ReleaseEIP(w.EIP); err != nil {
				return err
			}
			return m.reconcilePermits()
		}
	}
	return fmt.Errorf("mesh: workload %s not in %q", w.EIP, service)
}

// Allow declares that caller may invoke callee — the mesh's intent
// language. The permit lists underneath are derived, never hand-written.
func (m *Mesh) Allow(caller, callee string) error {
	s, ok := m.services[callee]
	if !ok {
		return fmt.Errorf("mesh: unknown callee %q", callee)
	}
	if _, ok := m.services[caller]; !ok {
		return fmt.Errorf("mesh: unknown caller %q", caller)
	}
	s.callers[caller] = true
	return m.reconcilePermits()
}

// Forbid withdraws a caller declaration.
func (m *Mesh) Forbid(caller, callee string) error {
	s, ok := m.services[callee]
	if !ok {
		return fmt.Errorf("mesh: unknown callee %q", callee)
	}
	delete(s.callers, caller)
	return m.reconcilePermits()
}

// reconcilePermits recomputes every service's permit list from the
// declared call graph and current workload sets: the SIP and every
// backend EIP admit exactly the workloads of declared callers.
func (m *Mesh) reconcilePermits() error {
	for _, callee := range m.services {
		var entries []permit.Entry
		for callerName := range callee.callers {
			caller := m.services[callerName]
			for _, w := range caller.workloads {
				entries = append(entries, addr.NewPrefix(w.EIP, 32))
			}
		}
		targets := []addr.IP{callee.sip}
		for _, w := range callee.workloads {
			targets = append(targets, w.EIP)
		}
		for _, target := range targets {
			if err := callee.tenant.SetPermitList(target, entries); err != nil {
				return err
			}
		}
	}
	return nil
}

// SetCanaryWeight splits pct% of the callee's traffic onto canary
// workloads by re-weighting the binds underneath.
func (m *Mesh) SetCanaryWeight(service string, pct int) error {
	s, ok := m.services[service]
	if !ok {
		return fmt.Errorf("mesh: unknown service %q", service)
	}
	if pct < 0 || pct > 100 {
		return fmt.Errorf("mesh: canary weight %d%% out of range", pct)
	}
	s.canaryWeight = pct
	s.applyCanarySplit()
	return nil
}

// applyCanarySplit translates the percentage into bind weights.
func (s *Service) applyCanarySplit() {
	var canaries, stable int
	for _, w := range s.workloads {
		if w.Canary {
			canaries++
		} else {
			stable++
		}
	}
	if canaries == 0 || stable == 0 || s.canaryWeight == 0 {
		for _, w := range s.workloads {
			s.tenant.Bind(w.EIP, s.sip, 1)
		}
		return
	}
	// Weight canaries so they receive canaryWeight% collectively:
	// wc/(wc*canaries + ws*stable) * canaries = pct/100, solved with
	// integer weights by cross-multiplying.
	wc := s.canaryWeight * stable
	ws := (100 - s.canaryWeight) * canaries
	g := gcd(wc, ws)
	if g > 0 {
		wc /= g
		ws /= g
	}
	for _, w := range s.workloads {
		weight := ws
		if w.Canary {
			weight = wc
		}
		s.tenant.Bind(w.EIP, s.sip, weight)
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// CallOpts tunes a mesh call.
type CallOpts struct {
	// Retries is the number of additional attempts on failure.
	Retries int
	// Request is the app-layer call made at the callee's gateway.
	Request app.Request
}

// CallResult reports one mesh call.
type CallResult struct {
	// Attempts made (1 = first try succeeded).
	Attempts int
	// Outcome is the app-layer verdict of the final attempt.
	Outcome app.Outcome
	// Backend is the workload that served it.
	Backend core.EIP
	// RTT of the successful attempt.
	RTT time.Duration
}

// Call performs one service-to-service request: network admission via
// the declarative data path, then the callee's gateway, with retries and
// circuit breaking. src must be a workload of the caller service.
func (m *Mesh) Call(caller string, src *Workload, callee string, opts CallOpts) (CallResult, error) {
	cs, ok := m.services[callee]
	if !ok {
		return CallResult{}, fmt.Errorf("mesh: unknown callee %q", callee)
	}
	if _, ok := m.services[caller]; !ok {
		return CallResult{}, fmt.Errorf("mesh: unknown caller %q", caller)
	}
	now := m.cloud.Now()
	if !cs.breaker.allow(now) {
		return CallResult{}, fmt.Errorf("mesh: circuit open for %q", callee)
	}
	var res CallResult
	var lastErr error
	for attempt := 0; attempt <= opts.Retries; attempt++ {
		res.Attempts = attempt + 1
		conn, err := m.cloud.Tenant(m.Tenant).Connect(src.EIP, cs.sip, core.ConnectOpts{SizeBytes: -1})
		if err != nil {
			lastErr = err
			continue
		}
		rng := m.cloud.Plane().Rand()
		rtt := conn.Path.RTT(rng)
		delivered := conn.Path.Delivered(rng)
		backend := conn.DstEIP
		conn.Close()
		if !delivered {
			lastErr = fmt.Errorf("mesh: request to %q lost in transit", callee)
			continue
		}
		res.Outcome = cs.gateway.Handle(opts.Request)
		res.Backend = backend
		res.RTT = rtt
		ok := res.Outcome == app.Served
		cs.breaker.record(m.cloud.Now(), ok)
		return res, nil
	}
	cs.breaker.record(m.cloud.Now(), false)
	return res, lastErr
}
