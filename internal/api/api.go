// Package api exposes the Table-2 control plane over HTTP/JSON — the
// shape a real provider would offer tenants. cmd/declnetd serves it;
// cmd/declnetctl speaks it. The handler serves one simulated World and
// holds no lock of its own: core's shard set is the only world gate.
//
// Alongside the control verbs, the server carries the observability plane
// of §6: GET /v1/explain replays a datapath decision, GET /v1/trace
// returns recent provider-side decision events, and GET /v1/metrics
// exports the runtime metrics registry in Prometheus text format.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"declnet"
	"declnet/internal/addr"
	"declnet/internal/core"
	"declnet/internal/intent"
	"declnet/internal/metrics"
	"declnet/internal/obs"
	"declnet/internal/qos"
	"declnet/internal/slo"
)

// Server wraps a world in an http.Handler. It takes no lock: reads
// (probe, status, explain, trace, metrics) and every Table-2 mutation —
// the single-verb routes (eips, sips, bind, permit, qos, potato, groups,
// names) and /v1/batch — serialize only on the shards they touch inside
// core. The simulator controls (transfer, fail, heal) advance the
// single-threaded engine inside core.Cloud.Exclusive, which holds every
// shard still for the step.
type Server struct {
	world *declnet.World
	mux   *http.ServeMux

	log       *slog.Logger
	startedAt time.Time

	mErrors  *metrics.RCounter
	mLatency *metrics.Hist
}

// Options tunes the server's logging. The server always attaches a fresh
// tracer, registry and default SLO plane to the world, and reads them
// back from the world on every request, so a plane attached later with
// World.EnableSLO backs /v1/slo, /v1/health and /v1/debug/flight.
type Options struct {
	// Logger receives one structured line per request (method, path,
	// tenant, status, latency). Nil discards logs.
	Logger *slog.Logger
}

// NewServer returns a handler over the given world with default
// observability (silent logs, fresh tracer and registry).
func NewServer(w *declnet.World) *Server { return NewServerWith(w, Options{}) }

// NewServerWith returns a handler with explicit observability wiring.
func NewServerWith(w *declnet.World, opts Options) *Server {
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	tracer, registry := obs.NewTracer(0), metrics.NewRegistry()
	w.EnableObservability(tracer, registry)
	w.EnableSLO(slo.NewPlane(slo.Config{}))
	s := &Server{
		world: w, mux: http.NewServeMux(),
		log:       opts.Logger,
		startedAt: time.Now(),
		mErrors:   registry.Counter("declnet_http_errors_total", "HTTP API error responses."),
		mLatency:  registry.Histogram("declnet_http_request_seconds", "HTTP API request latency."),
	}
	registry.GaugeFunc("declnet_trace_events_total",
		"Decision-trace events recorded.", func() float64 { return float64(tracer.Recorded()) })
	registry.GaugeFunc("declnet_trace_evicted_total",
		"Decision-trace events overwritten by ring wraparound.", func() float64 { return float64(tracer.Evicted()) })
	// The single-verb mutation routes: wire struct -> typed op -> Apply.
	s.mux.HandleFunc("POST /v1/eips", mutate(s, EIPRequest.op, replyEIP))
	s.mux.HandleFunc("POST /v1/eips/release", mutate(s, ReleaseRequest.op, replyEmpty))
	s.mux.HandleFunc("POST /v1/sips", mutate(s, SIPRequest.op, replySIP))
	s.mux.HandleFunc("POST /v1/bind", mutate(s, BindRequest.bind, replyEmpty))
	s.mux.HandleFunc("POST /v1/unbind", mutate(s, BindRequest.unbind, replyEmpty))
	s.mux.HandleFunc("POST /v1/permit", mutate(s, PermitRequest.op, replyEmpty))
	s.mux.HandleFunc("POST /v1/qos", mutate(s, QoSRequest.op, replyEmpty))
	s.mux.HandleFunc("POST /v1/potato", mutate(s, PotatoRequest.op, replyEmpty))
	s.mux.HandleFunc("POST /v1/groups", mutate(s, GroupRequest.op, replyEmpty))
	s.mux.HandleFunc("POST /v1/names", mutate(s, NameRequest.op, replyEmpty))
	s.mux.HandleFunc("POST /v1/batch", s.batch)
	s.mux.HandleFunc("POST /v1/transfer", s.transfer)
	s.mux.HandleFunc("POST /v1/fail", s.fail)
	s.mux.HandleFunc("POST /v1/heal", s.heal)
	s.mux.HandleFunc("GET /v1/probe", s.probe)
	s.mux.HandleFunc("GET /v1/status", s.status)
	s.mux.HandleFunc("GET /v1/explain", s.explain)
	s.mux.HandleFunc("GET /v1/trace", s.trace)
	s.mux.HandleFunc("GET /v1/metrics", s.metrics)
	s.mux.HandleFunc("GET /v1/slo", s.sloReport)
	s.mux.HandleFunc("POST /v1/slo", s.sloSet)
	s.mux.HandleFunc("GET /v1/health", s.health)
	s.mux.HandleFunc("GET /v1/debug/flight", s.flight)
	s.mux.HandleFunc("GET /v1/reconcile", s.reconcileStatus)
	s.mux.HandleFunc("POST /v1/reconcile/sweep", s.reconcileSweep)
	s.mux.HandleFunc("POST /v1/snapshot", s.snapshot)
	return s
}

// Logger returns the server's structured logger.
func (s *Server) Logger() *slog.Logger { return s.log }

// Registry returns the runtime metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.world.Registry() }

// statusRecorder captures the response code, and the tenant a handler
// decoded from its body, for logging and metrics.
type statusRecorder struct {
	http.ResponseWriter
	code   int
	tenant string
}

// logTenant hands ServeHTTP's log line the tenant a POST carried in its
// body; a ?tenant= query parameter wins.
func logTenant(w http.ResponseWriter, tenant string) {
	if sr, ok := w.(*statusRecorder); ok && sr.tenant == "" {
		sr.tenant = tenant
	}
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler, logging one structured line per
// request and feeding the API latency histogram (whose _count is the
// request count) and error counter.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK, tenant: r.URL.Query().Get("tenant")}
	s.mux.ServeHTTP(rec, r)
	elapsed := time.Since(start)
	s.mLatency.Record(elapsed)
	level := slog.LevelDebug
	if rec.code >= 400 {
		s.mErrors.Inc()
		level = slog.LevelWarn
	}
	s.log.LogAttrs(r.Context(), level, "request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("tenant", rec.tenant),
		slog.Int("status", rec.code),
		slog.Duration("latency", elapsed),
	)
}

// Error is the JSON error envelope.
type Error struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, Error{Error: err.Error()})
}

// maxBody bounds every POST body.
const maxBody = 1 << 20

// decode reads a POST's JSON body: one JSON value and nothing after it
// but whitespace. When it reports false the error response is already
// written: 413 for a body over maxBody, 400 for one that does not decode
// (unknown fields and trailing data included).
func decode[T any](w http.ResponseWriter, r *http.Request) (v T, ok bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(&v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, fmt.Errorf("api: bad request body: %w", err))
		return v, false
	}
	return v, true
}

// mutate serves one single-verb mutation route: decode the wire struct
// once, convert it to the typed op (a conversion error is a 400), run it
// through the cloud's verb path (a failure there is a 409), and encode
// the reply built from the op's address.
func mutate[T any](s *Server, toOp func(T) (tenant string, op intent.Op, err error), reply func(addr.IP) any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, ok := decode[T](w, r)
		if !ok {
			return
		}
		tenant, op, err := toOp(req)
		logTenant(w, tenant)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		a, err := s.world.Cloud.Apply(tenant, op)
		if err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, reply(a))
	}
}

func replyEIP(a addr.IP) any { return EIPResponse{EIP: a.String()} }
func replySIP(a addr.IP) any { return SIPResponse{SIP: a.String()} }
func replyEmpty(addr.IP) any { return struct{}{} }

// ips parses a request's address operands, keeping the first error.
type ips struct{ err error }

func (p *ips) parse(s string) addr.IP {
	a, err := addr.ParseIP(s)
	if p.err == nil {
		p.err = err
	}
	return a
}

// EIPRequest asks for an endpoint IP (Table 2: request_eip(vm_id)).
type EIPRequest struct {
	Tenant string `json:"tenant"`
	VM     string `json:"vm"`
}

// EIPResponse returns the granted address.
type EIPResponse struct {
	EIP string `json:"eip"`
}

func (r EIPRequest) op() (string, intent.Op, error) {
	return r.Tenant, intent.Op{Verb: intent.OpRequestEIP, VM: r.VM}, nil
}

// ReleaseRequest returns an endpoint IP.
type ReleaseRequest struct {
	Tenant string `json:"tenant"`
	EIP    string `json:"eip"`
}

func (r ReleaseRequest) op() (string, intent.Op, error) {
	var p ips
	return r.Tenant, intent.Op{Verb: intent.OpReleaseEIP, Addr: p.parse(r.EIP)}, p.err
}

// SIPRequest asks for a service IP (Table 2: request_sip()).
type SIPRequest struct {
	Tenant   string `json:"tenant"`
	Provider string `json:"provider"`
}

// SIPResponse returns the granted service address.
type SIPResponse struct {
	SIP string `json:"sip"`
}

func (r SIPRequest) op() (string, intent.Op, error) {
	return r.Tenant, intent.Op{Verb: intent.OpRequestSIP, Provider: r.Provider}, nil
}

// BindRequest associates an EIP with a SIP (Table 2: bind(eip, sip)).
type BindRequest struct {
	Tenant string `json:"tenant"`
	EIP    string `json:"eip"`
	SIP    string `json:"sip"`
	Weight int    `json:"weight,omitempty"`
}

func (r BindRequest) bind() (string, intent.Op, error)   { return r.op(intent.OpBind, r.Weight) }
func (r BindRequest) unbind() (string, intent.Op, error) { return r.op(intent.OpUnbind, 0) }

func (r BindRequest) op(verb string, weight int) (string, intent.Op, error) {
	var p ips
	return r.Tenant, intent.Op{Verb: verb, EIP: p.parse(r.EIP), SIP: p.parse(r.SIP), Weight: weight}, p.err
}

// PermitRequest replaces a target's permit list (Table 2:
// set_permit_list(eip, permit_list)). Entries are CIDR strings; bare IPs
// are treated as /32s.
type PermitRequest struct {
	Tenant  string   `json:"tenant"`
	Target  string   `json:"target"`
	Entries []string `json:"entries"`
	Groups  []string `json:"groups,omitempty"`
}

func (r PermitRequest) op() (string, intent.Op, error) {
	var p ips
	op := intent.Op{Verb: intent.OpSetPermit, Target: p.parse(r.Target), Groups: r.Groups}
	if p.err == nil {
		op.Entries, p.err = parsePermitEntries(r.Entries)
	}
	return r.Tenant, op, p.err
}

// ParsePermitEntry parses one wire-format permit entry: a CIDR, or a
// bare IP treated as a /32.
func ParsePermitEntry(e string) (declnet.Prefix, error) {
	if !strings.Contains(e, "/") {
		e += "/32"
	}
	return declnet.ParsePrefix(e)
}

func parsePermitEntries(es []string) ([]addr.Prefix, error) {
	out := make([]addr.Prefix, 0, len(es))
	for _, e := range es {
		p, err := ParsePermitEntry(e)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// QoSRequest grants regional egress bandwidth (Table 2:
// set_qos(region, bandwidth)).
type QoSRequest struct {
	Tenant    string  `json:"tenant"`
	Provider  string  `json:"provider"`
	Region    string  `json:"region"`
	Bandwidth float64 `json:"bandwidth_bps"`
}

func (r QoSRequest) op() (string, intent.Op, error) {
	return r.Tenant, intent.Op{Verb: intent.OpSetQoS, Provider: r.Provider, Region: r.Region, Bps: r.Bandwidth}, nil
}

// PotatoRequest selects a transit profile ("hot", "cold", "dedicated").
type PotatoRequest struct {
	Tenant   string `json:"tenant"`
	Provider string `json:"provider"`
	Policy   string `json:"policy"`
}

func (r PotatoRequest) op() (string, intent.Op, error) {
	op := intent.Op{Verb: intent.OpSetPotato, Provider: r.Provider, Policy: r.Policy}
	if _, err := qos.ParsePotatoPolicy(r.Policy); err != nil {
		return r.Tenant, op, fmt.Errorf("api: unknown policy %q", r.Policy)
	}
	return r.Tenant, op, nil
}

// GroupRequest defines an endpoint group (members may span providers).
type GroupRequest struct {
	Tenant  string   `json:"tenant"`
	Name    string   `json:"name"`
	Members []string `json:"members"`
}

func (r GroupRequest) op() (string, intent.Op, error) {
	var p ips
	op := intent.Op{Verb: intent.OpCreateGroup, Name: r.Name}
	for _, m := range r.Members {
		op.Members = append(op.Members, p.parse(m))
	}
	return r.Tenant, op, p.err
}

// NameRequest binds a tenant-scoped name to one of the tenant's
// addresses (the §6 naming extension).
type NameRequest struct {
	Tenant string `json:"tenant"`
	Name   string `json:"name"`
	Target string `json:"target"`
}

func (r NameRequest) op() (string, intent.Op, error) {
	var p ips
	return r.Tenant, intent.Op{Verb: intent.OpRegisterName, Name: r.Name, Addr: p.parse(r.Target)}, p.err
}

// resolveDst interprets a destination string as an IP, falling back to
// the tenant's registered names.
func (s *Server) resolveDst(tenant, dst string) (declnet.IP, error) {
	if ip, err := declnet.ParseIP(dst); err == nil {
		return ip, nil
	}
	if ip, ok := s.world.Tenant(tenant).Resolve(dst); ok {
		return ip, nil
	}
	return 0, fmt.Errorf("api: %q is neither an address nor a registered name", dst)
}

// TransferRequest moves bytes between endpoints inside the simulation.
type TransferRequest struct {
	Tenant string  `json:"tenant"`
	Src    string  `json:"src"`
	Dst    string  `json:"dst"`
	Bytes  float64 `json:"bytes"`
}

// TransferResponse reports the flow completion time.
type TransferResponse struct {
	FCTMillis float64 `json:"fct_ms"`
}

func (s *Server) transfer(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[TransferRequest](w, r)
	if !ok {
		return
	}
	logTenant(w, req.Tenant)
	src, err := declnet.ParseIP(req.Src)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Bytes <= 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("api: bytes must be positive"))
		return
	}
	dst, err := s.resolveDst(req.Tenant, req.Dst)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// The connect runs under its shard read locks like any read; only
	// the run that completes the flow holds the world still. fct is set by
	// whichever engine step fires the completion, and read inside a step.
	var fct time.Duration
	_, err = s.world.Tenant(req.Tenant).Transfer(src, dst, req.Bytes, func(d time.Duration) { fct = d })
	if err != nil {
		writeErr(w, http.StatusForbidden, err)
		return
	}
	var resp TransferResponse
	s.world.Cloud.Exclusive(func() {
		s.world.Run()
		resp.FCTMillis = float64(fct) / float64(time.Millisecond)
	})
	writeJSON(w, http.StatusOK, resp)
}

// FaultRequest injects or heals an infrastructure failure — the
// operator-facing face of internal/fault. Kind is "link", "node", or
// "region"; AdvanceMillis optionally runs the simulation forward after
// the event, by at most maxAdvance, so the provider's reaction (failover,
// re-bind) can land.
type FaultRequest struct {
	Kind          string  `json:"kind"`
	Target        string  `json:"target"`
	AdvanceMillis float64 `json:"advance_ms,omitempty"`
}

// FaultResponse reports the injector's running drill counters.
type FaultResponse struct {
	LinkFailures   uint64 `json:"link_failures"`
	NodeFailures   uint64 `json:"node_failures"`
	RegionFailures uint64 `json:"region_failures"`
	Recoveries     uint64 `json:"recoveries"`
	Failovers      uint64 `json:"failovers"`
	Rebinds        uint64 `json:"rebinds"`
}

// maxAdvance bounds a fault request's advance: the run holds the world
// gate, every verb and read waiting on it, while the daemon tickers
// (health sweeps, quota limiters) fire all the way to the deadline.
const maxAdvance = time.Minute

func (s *Server) fail(w http.ResponseWriter, r *http.Request) { s.faultish(w, r, true) }
func (s *Server) heal(w http.ResponseWriter, r *http.Request) { s.faultish(w, r, false) }

func (s *Server) faultish(w http.ResponseWriter, r *http.Request, fail bool) {
	req, ok := decode[FaultRequest](w, r)
	if !ok {
		return
	}
	if req.AdvanceMillis > float64(maxAdvance.Milliseconds()) {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("api: advance_ms %g is over the %d ms bound", req.AdvanceMillis, maxAdvance.Milliseconds()))
		return
	}
	op := s.world.Heal
	if fail {
		op = s.world.Fail
	}
	var resp FaultResponse
	var err error
	// Injection, the run after it and the counter reads are one engine
	// step: no verb or read sees the world between them.
	s.world.Cloud.Exclusive(func() {
		if err = op(req.Kind, req.Target); err != nil {
			return
		}
		if req.AdvanceMillis > 0 {
			s.world.RunFor(time.Duration(req.AdvanceMillis * float64(time.Millisecond)))
		}
		m := s.world.Faults()
		resp = FaultResponse{
			LinkFailures:   m.Inj.LinkFailures,
			NodeFailures:   m.Inj.NodeFailures,
			RegionFailures: m.Inj.RegionFailures,
			Recoveries:     m.Inj.Recoveries,
			Failovers:      m.Failovers,
			Rebinds:        m.Rebinds,
		}
	})
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// ProbeResponse reports one RTT sample.
type ProbeResponse struct {
	RTTMillis float64 `json:"rtt_ms"`
	Delivered bool    `json:"delivered"`
}

func (s *Server) probe(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	src, err := declnet.ParseIP(q.Get("src"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// The op opens here (not in core) so its service time covers the
	// whole request path: name resolution, shard locking, datapath.
	op := s.world.SLO().Begin(slo.VerbProbe, q.Get("tenant"), "")
	dst, err := s.resolveDst(q.Get("tenant"), q.Get("dst"))
	if err != nil {
		op.End(err)
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rtt, ok, err := s.world.Tenant(q.Get("tenant")).ProbeWith(&op, src, dst)
	op.End(err)
	if err != nil {
		writeErr(w, http.StatusForbidden, err)
		return
	}
	writeJSON(w, http.StatusOK, ProbeResponse{
		RTTMillis: float64(rtt) / float64(time.Millisecond),
		Delivered: ok,
	})
}

// StatusResponse summarizes the running world: virtual and wall-clock
// uptime, per-provider scale, per-tenant resource counts, and trace
// volume from the observability plane.
type StatusResponse struct {
	VirtualTimeMillis float64                        `json:"virtual_time_ms"`
	UptimeSeconds     float64                        `json:"uptime_seconds"`
	Providers         map[string]any                 `json:"providers"`
	Tenants           map[string]core.ResourceCounts `json:"tenants"`
	TraceEvents       uint64                         `json:"trace_events"`
	MetricSamples     int                            `json:"metric_samples"`
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	resp := StatusResponse{
		VirtualTimeMillis: float64(s.world.Now()) / float64(time.Millisecond),
		UptimeSeconds:     time.Since(s.startedAt).Seconds(),
		Providers:         map[string]any{},
		Tenants:           s.world.Cloud.TenantResources(),
		TraceEvents:       s.world.Tracer().Recorded(),
		MetricSamples:     len(s.world.Registry().Snapshot()),
	}
	for _, name := range []string{s.world.Fig1.CloudA, s.world.Fig1.CloudB, "onprem"} {
		if p, ok := s.world.Cloud.Provider(name); ok {
			resp.Providers[name] = map[string]int{
				"endpoints": p.EndpointCount(),
				"services":  p.ServiceCount(),
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
