package api

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"declnet/internal/addr"
	"declnet/internal/obs"
)

// This file serves the tenant-facing diagnosis endpoints of the
// observability plane: /v1/explain (decision replay), /v1/trace (recent
// decision events), and /v1/metrics (Prometheus text exposition).

// explain handles GET /v1/explain?tenant=&src=&dst=: replay the datapath
// decision for a hypothetical flow and return the ordered verdict chain.
// dst may be an address or a registered name. Unknown or foreign
// addresses return 404 — a tenant cannot probe someone else's topology.
func (s *Server) explain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	tenant := q.Get("tenant")
	src, err := addr.ParseIP(q.Get("src"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("api: bad src: %w", err))
		return
	}
	dst, err := s.resolveDst(tenant, q.Get("dst"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ex, err := s.cloud.Tenant(tenant).Explain(src, dst)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, ex)
}

// TraceResponse carries a tenant's recent decision events, oldest first.
type TraceResponse struct {
	Tenant string      `json:"tenant"`
	Events []obs.Event `json:"events"`
}

// trace handles GET /v1/trace?tenant=&n=&kind=: return up to n recent
// trace events for the tenant (all buffered events when n is absent),
// optionally filtered to one event kind.
func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	tenant := q.Get("tenant")
	if tenant == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("api: tenant is required"))
		return
	}
	n := 0
	if raw := q.Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("api: bad n %q", raw))
			return
		}
		n = v
	}
	evs := s.cloud.Tracer().Recent(tenant, n)
	if kind := q.Get("kind"); kind != "" {
		kept := evs[:0]
		for _, ev := range evs {
			if ev.Kind.String() == kind {
				kept = append(kept, ev)
			}
		}
		evs = kept
	}
	if evs == nil {
		evs = []obs.Event{}
	}
	writeJSON(w, http.StatusOK, TraceResponse{Tenant: tenant, Events: evs})
}

// metrics handles GET /v1/metrics: Prometheus text exposition of the
// runtime registry. Gauges over live simulation state take core's gate
// themselves.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	var sb strings.Builder
	if err := s.cloud.Registry().WritePrometheus(&sb); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, sb.String())
}
