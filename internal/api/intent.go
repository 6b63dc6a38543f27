// Persistence and reconciliation endpoints: GET /v1/reconcile reports
// the convergence loop's counters, POST /v1/reconcile/sweep forces one
// synchronous sweep, and POST /v1/snapshot compacts the durable intent
// store (snapshot + journal truncation). All three answer sensibly on a
// daemon running without -data-dir: the store and reconciler are simply
// absent.
package api

import (
	"fmt"
	"net/http"

	"declnet/internal/core"
	"declnet/internal/intent"
)

// ReconcileResponse wraps the reconciler's status; Enabled false means
// the daemon runs without a durable store (no -data-dir).
type ReconcileResponse struct {
	core.ReconcileStatus
}

func (s *Server) reconcileStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ReconcileResponse{ReconcileStatus: s.cloud.Reconciler().Status()})
}

func (s *Server) reconcileSweep(w http.ResponseWriter, r *http.Request) {
	rec := s.cloud.Reconciler()
	if rec == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("api: reconciler not enabled (run declnetd with -data-dir)"))
		return
	}
	writeJSON(w, http.StatusOK, rec.RunSweep())
}

// SnapshotResponse reports the store's stats after the compaction.
type SnapshotResponse struct {
	intent.Stats
}

func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) {
	l := s.cloud.Intent()
	if l == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("api: intent store not enabled (run declnetd with -data-dir)"))
		return
	}
	if err := l.Compact(); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, SnapshotResponse{Stats: l.Stats()})
}
