// Package api exposes the Table-2 control plane over HTTP/JSON — the
// shape a real provider would offer tenants. cmd/declnetd serves it;
// cmd/declnetctl speaks it. The handler serves one core.Cloud — declnetd's
// programs no data plane; a test's may be a simulated World — and holds no
// lock of its own: every request takes only the shard locks of what it
// touches, inside core. No route advances a data plane; fault drills run
// in-process (World.Fail, Heal, Run, RunFor), as the experiments do.
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

	"declnet/internal/addr"
	"declnet/internal/core"
	"declnet/internal/intent"
	"declnet/internal/metrics"
	"declnet/internal/obs"
	"declnet/internal/slo"
)

// Server wraps a cloud in an http.Handler. It takes no lock: reads
// (probe, status, explain, trace, metrics) and every Table-2 mutation —
// the single-verb routes (eips, sips, bind, permit, qos, potato, groups,
// names) and /v1/batch — serialize only on the shards they touch inside
// core. Build it before the cloud is shared: NewServerWith attaches the
// observability and SLO planes, which are set-up steps.
type Server struct {
	cloud *core.Cloud
	mux   *http.ServeMux

	log       *slog.Logger
	startedAt time.Time

	mErrors  *metrics.RCounter
	mLatency *metrics.Hist
}

// Options tunes the server's logging. The server always attaches a fresh
// tracer, registry and default SLO plane to the cloud, and reads them
// back from the cloud on every request, so a plane attached later with
// EnableSLO backs /v1/slo, /v1/health and /v1/debug/flight.
type Options struct {
	// Logger receives one structured line per request (method, path,
	// tenant, status, latency). Nil discards logs.
	Logger *slog.Logger
}

// ControlPlane is what a server serves: a *core.Cloud, or a type that
// embeds one, such as the root package's simulated World.
type ControlPlane interface{ ControlPlane() *core.Cloud }

// NewServer returns a handler over the given cloud with default
// observability (silent logs, fresh tracer and registry).
func NewServer(cp ControlPlane) *Server { return NewServerWith(cp, Options{}) }

// NewServerWith returns a handler with explicit observability wiring.
func NewServerWith(cp ControlPlane, opts Options) *Server {
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	c := cp.ControlPlane()
	tracer, registry := obs.NewTracer(0), metrics.NewRegistry()
	c.EnableObservability(tracer, registry)
	c.EnableSLO(slo.NewPlane(slo.Config{}))
	s := &Server{
		cloud: c, mux: http.NewServeMux(),
		log:       opts.Logger,
		startedAt: time.Now(),
		mErrors:   registry.Counter("declnet_http_errors_total", "HTTP API error responses."),
		mLatency:  registry.Histogram("declnet_http_request_seconds", "HTTP API request latency."),
	}
	registry.GaugeFunc("declnet_trace_events_total",
		"Decision-trace events recorded.", func() float64 { return float64(tracer.Recorded()) })
	registry.GaugeFunc("declnet_trace_evicted_total",
		"Decision-trace events overwritten by ring wraparound.", func() float64 { return float64(tracer.Evicted()) })
	registry.GaugeFunc("declnet_trace_bytes",
		"Bytes the decision-trace rings hold.", func() float64 { return float64(tracer.Bytes()) })
	registry.GaugeFunc("declnet_permit_sets",
		"Distinct permit sets the declared records hold.", func() float64 { n, _ := c.Interned(); return float64(n) })
	registry.GaugeFunc("declnet_placements",
		"Distinct (tenant, VM, provider, region) placements the declared endpoints hold.",
		func() float64 { _, n := c.Interned(); return float64(n) })
	// The store's size, as the log keeps it from what it writes: a scrape
	// stats no file. Without a store, 0.
	size := func() intent.StoreSize {
		if l := c.Intent(); l != nil {
			return l.Size()
		}
		return intent.StoreSize{}
	}
	registry.GaugeFunc("declnet_journal_bytes", "Bytes of the intent journal file.",
		func() float64 { return float64(size().JournalBytes) })
	registry.GaugeFunc("declnet_journal_records", "Frames the intent journal file holds.",
		func() float64 { return float64(size().JournalRecords) })
	registry.GaugeFunc("declnet_snapshot_bytes", "Bytes of the intent snapshot file.",
		func() float64 { return float64(size().SnapshotBytes) })
	// Every mutation route decodes its body with the one decoder and
	// applies it with core.ApplyBatch (batch.go).
	s.mux.HandleFunc("POST /v1/batch", s.mutation(route{}))
	for _, m := range verbRoutes {
		s.mux.HandleFunc("POST "+m.path, s.mutation(m.route))
	}
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
func (s *Server) Registry() *metrics.Registry { return s.cloud.Registry() }

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
// written (writeBodyErr): unknown fields and trailing data are 400s.
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
		writeBodyErr(w, err)
		return v, false
	}
	return v, true
}

// writeBodyErr answers a body that could not be read or decoded: 413
// for one over maxBody, 400 for any other.
func writeBodyErr(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeErr(w, code, fmt.Errorf("api: bad request body: %w", err))
}

// The single-verb routes' request structs below are their wire schema,
// which clients encode with. The server decodes none of them: each
// route's body is one op of its verb (verbRoutes, batch.go), decoded by
// the /v1/batch decoder under the same keys.

// EIPRequest asks for an endpoint IP (Table 2: request_eip(vm_id)).
type EIPRequest struct {
	Tenant string `json:"tenant"`
	VM     string `json:"vm"`
}

// EIPResponse returns the granted address.
type EIPResponse struct {
	EIP string `json:"eip"`
}

// ReleaseRequest returns an endpoint IP.
type ReleaseRequest struct {
	Tenant string `json:"tenant"`
	EIP    string `json:"eip"`
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

// BindRequest associates an EIP with a SIP (Table 2: bind(eip, sip)).
type BindRequest struct {
	Tenant string `json:"tenant"`
	EIP    string `json:"eip"`
	SIP    string `json:"sip"`
	Weight int    `json:"weight,omitempty"`
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

// ParsePermitEntry parses one wire-format permit entry: a CIDR, or a
// bare IP treated as a /32. Like addr.ParsePrefix it allocates only on
// error and e does not escape.
func ParsePermitEntry(e string) (addr.Prefix, error) {
	if !strings.Contains(e, "/") {
		ip, err := addr.ParseIP(e)
		return addr.Prefix{Addr: ip, Len: 32}, err
	}
	return addr.ParsePrefix(e)
}

// QoSRequest grants regional egress bandwidth (Table 2:
// set_qos(region, bandwidth)).
type QoSRequest struct {
	Tenant    string  `json:"tenant"`
	Provider  string  `json:"provider"`
	Region    string  `json:"region"`
	Bandwidth float64 `json:"bandwidth_bps"`
}

// PotatoRequest selects a transit profile ("hot", "cold", "dedicated").
type PotatoRequest struct {
	Tenant   string `json:"tenant"`
	Provider string `json:"provider"`
	Policy   string `json:"policy"`
}

// GroupRequest defines an endpoint group (members may span providers).
type GroupRequest struct {
	Tenant  string   `json:"tenant"`
	Name    string   `json:"name"`
	Members []string `json:"members"`
}

// NameRequest binds a tenant-scoped name to one of the tenant's
// addresses (the §6 naming extension).
type NameRequest struct {
	Tenant string `json:"tenant"`
	Name   string `json:"name"`
	Target string `json:"target"`
}

// resolveDst interprets a destination string as an IP, falling back to
// the tenant's registered names.
func (s *Server) resolveDst(tenant, dst string) (addr.IP, error) {
	if ip, err := addr.ParseIP(dst); err == nil {
		return ip, nil
	}
	if ip, ok := s.cloud.Tenant(tenant).Resolve(dst); ok {
		return ip, nil
	}
	return 0, fmt.Errorf("api: %q is neither an address nor a registered name", dst)
}

// ProbeResponse reports one RTT sample.
type ProbeResponse struct {
	RTTMillis float64 `json:"rtt_ms"`
	Delivered bool    `json:"delivered"`
}

func (s *Server) probe(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	src, err := addr.ParseIP(q.Get("src"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// The op opens here (not in core) so its service time covers the
	// whole request path: name resolution, shard locking, datapath.
	op := s.cloud.SLO().Begin(slo.VerbProbe, q.Get("tenant"), "")
	dst, err := s.resolveDst(q.Get("tenant"), q.Get("dst"))
	if err != nil {
		op.End(err)
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rtt, ok, err := s.cloud.Tenant(q.Get("tenant")).ProbeWith(&op, src, dst)
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

// StatusResponse summarizes the running cloud: wall-clock uptime,
// per-provider scale, per-tenant resource counts, and trace volume from
// the observability plane.
type StatusResponse struct {
	UptimeSeconds float64                        `json:"uptime_seconds"`
	Providers     map[string]any                 `json:"providers"`
	Tenants       map[string]core.ResourceCounts `json:"tenants"`
	TraceEvents   uint64                         `json:"trace_events"`
	MetricSamples int                            `json:"metric_samples"`
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	resp := StatusResponse{
		UptimeSeconds: time.Since(s.startedAt).Seconds(),
		Providers:     map[string]any{},
		Tenants:       s.cloud.TenantResources(),
		TraceEvents:   s.cloud.Tracer().Recorded(),
		MetricSamples: s.cloud.Registry().Len(),
	}
	for _, p := range s.cloud.Providers() {
		resp.Providers[p.Name] = map[string]int{
			"endpoints": p.EndpointCount(),
			"services":  p.ServiceCount(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
