// SLO-plane endpoints: declared objectives and shard latency accounting
// (GET/POST /v1/slo), the noisy-neighbor detector (GET /v1/health), and
// the flight recorder dump (GET /v1/debug/flight).
//
// These are read paths over internally-synchronized slo.Plane state and
// take no shard lock — health checks and postmortem span dumps must work
// even while a storm holds a shard's lock; that is exactly when they are
// needed.
package api

import (
	"fmt"
	"net/http"
	"strconv"

	"declnet/internal/slo"
)

// SLOSetRequest registers (or replaces) a tenant's declared objectives,
// in ParseObjective wire format, e.g. "connect_p99=5ms;permit_lag_p99=1ms".
type SLOSetRequest struct {
	Tenant    string `json:"tenant"`
	Objective string `json:"objective"`
}

func (s *Server) sloSet(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[SLOSetRequest](w, r)
	if !ok {
		return
	}
	logTenant(w, req.Tenant)
	if req.Tenant == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("api: missing tenant"))
		return
	}
	o, err := slo.ParseObjective(req.Objective)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.cloud.SLO().SetObjective(req.Tenant, o)
	writeJSON(w, http.StatusOK, struct{}{})
}

// SLOResponse is GET /v1/slo: per-tenant objective evaluation and
// per-shard latency accounting.
type SLOResponse struct {
	WindowGen uint64             `json:"window_gen"`
	Tenants   []slo.TenantReport `json:"tenants"`
}

func (s *Server) sloReport(w http.ResponseWriter, r *http.Request) {
	plane := s.cloud.SLO()
	writeJSON(w, http.StatusOK, SLOResponse{
		WindowGen: plane.WindowGen(),
		Tenants:   plane.Report(r.URL.Query().Get("tenant")),
	})
}

// HealthResponse is GET /v1/health: the noisy-neighbor detector's
// verdict and, once the intent store's journal has failed a write or an
// fsync, that cause — the store then refuses every mutation (503) until a
// restart, and reads keep serving.
type HealthResponse struct {
	slo.HealthReport
	Store string `json:"store_failed,omitempty"`
}

func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	rep := HealthResponse{HealthReport: s.cloud.SLO().Health()}
	if l := s.cloud.Intent(); l != nil {
		if err := l.Failed(); err != nil {
			rep.Status, rep.Store = "degraded", err.Error()
		}
	}
	code := http.StatusOK
	if rep.Status != "ok" {
		// 503 lets dumb probes (curl -f, LB health checks) see degradation
		// without parsing the body.
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, rep)
}

// FlightResponse is GET /v1/debug/flight: retained spans, oldest first.
type FlightResponse struct {
	Retained uint64           `json:"retained_total"`
	Spans    []slo.SpanRecord `json:"spans"`
}

func (s *Server) flight(w http.ResponseWriter, r *http.Request) {
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		i, err := strconv.Atoi(v)
		if err != nil || i < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("api: bad n %q", v))
			return
		}
		n = i
	}
	plane := s.cloud.SLO()
	writeJSON(w, http.StatusOK, FlightResponse{
		Retained: plane.FlightRetained(),
		Spans:    plane.Flight(n),
	})
}
