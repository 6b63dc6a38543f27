// POST /v1/batch: the batch write endpoint. One request carries many
// Table-2 mutations; core.ApplyBatch applies them under one acquisition
// of exactly the (tenant, region) shards they touch and journals them
// as one frame, so onboarding N endpoints costs one round trip, one lock
// acquisition and one journal append instead of N — and delays no other
// tenant's requests while it runs.
//
// Status codes follow the batch semantics: 400 means the request or an
// op failed validation and NOTHING was applied; 409 means a runtime
// failure stopped the batch partway — the response carries the results
// of the ops that were applied (and stay applied) plus the failing
// index; 200 means every op applied.
package api

import (
	"errors"
	"fmt"
	"net/http"

	"declnet"
	"declnet/internal/core"
	"declnet/internal/intent"
	"declnet/internal/qos"
)

// BatchOpRequest is one wire-format batch operation. Op names the verb
// (request_eip, release_eip, request_sip, release_sip, bind, unbind,
// set_permit, permit, revoke, set_qos, set_potato, create_group,
// register_name); the remaining fields are its operands, matching the
// per-endpoint request shapes. Address fields additionally accept "$i"
// back-references to the address granted by op i of the same batch.
type BatchOpRequest struct {
	Op        string   `json:"op"`
	VM        string   `json:"vm,omitempty"`
	Provider  string   `json:"provider,omitempty"`
	EIP       string   `json:"eip,omitempty"`
	SIP       string   `json:"sip,omitempty"`
	Target    string   `json:"target,omitempty"`
	Weight    int      `json:"weight,omitempty"`
	Entries   []string `json:"entries,omitempty"`
	Groups    []string `json:"groups,omitempty"`
	Region    string   `json:"region,omitempty"`
	Bandwidth float64  `json:"bandwidth_bps,omitempty"`
	Policy    string   `json:"policy,omitempty"`
	Name      string   `json:"name,omitempty"`
	Members   []string `json:"members,omitempty"`
}

// BatchRequest is the /v1/batch body.
type BatchRequest struct {
	Tenant string           `json:"tenant"`
	Ops    []BatchOpRequest `json:"ops"`
}

// BatchOpResult reports one applied op; Addr is set for address grants.
type BatchOpResult struct {
	Op   string `json:"op"`
	Addr string `json:"addr,omitempty"`
}

// BatchResponse reports the applied prefix of the batch. On success
// Applied == len(ops) and Error is empty; on a 409, Error and
// FailedIndex describe the op that stopped the batch.
type BatchResponse struct {
	Applied     int             `json:"applied"`
	Results     []BatchOpResult `json:"results"`
	Error       string          `json:"error,omitempty"`
	FailedIndex *int            `json:"failed_index,omitempty"`
}

func (s *Server) batch(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[BatchRequest](w, r)
	if !ok {
		return
	}
	logTenant(w, req.Tenant)
	if len(req.Ops) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("api: empty batch"))
		return
	}
	ops, err := parseBatchOps(req.Ops)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	results, err := s.world.Cloud.ApplyBatch(req.Tenant, ops)
	if err != nil {
		var be *core.BatchError
		if results == nil {
			// Static validation failed: nothing was applied.
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		resp := BatchResponse{Applied: len(results), Results: wireResults(results), Error: err.Error()}
		if errors.As(err, &be) {
			idx := be.Index
			resp.FailedIndex = &idx
		}
		writeJSON(w, http.StatusConflict, resp)
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{Applied: len(results), Results: wireResults(results)})
}

// parseBatchOps converts wire ops to core ops, parsing permit entries
// and potato policies; parse failures reject the whole batch (400).
func parseBatchOps(ops []BatchOpRequest) ([]core.BatchOp, error) {
	out := make([]core.BatchOp, 0, len(ops))
	for i, o := range ops {
		op := core.BatchOp{
			Op:        o.Op,
			VM:        declnet.NodeID(o.VM),
			Provider:  o.Provider,
			EIP:       o.EIP,
			SIP:       o.SIP,
			Target:    o.Target,
			Weight:    o.Weight,
			Groups:    o.Groups,
			Region:    o.Region,
			Bandwidth: o.Bandwidth,
			Name:      o.Name,
			Members:   o.Members,
		}
		var err error
		if op.Entries, err = parsePermitEntries(o.Entries); err != nil {
			return nil, fmt.Errorf("api: batch op %d (%s): %w", i, o.Op, err)
		}
		if o.Op == intent.OpSetPotato {
			if op.Policy, err = qos.ParsePotatoPolicy(o.Policy); err != nil {
				return nil, fmt.Errorf("api: batch op %d: unknown policy %q", i, o.Policy)
			}
		}
		out = append(out, op)
	}
	return out, nil
}

func wireResults(results []core.BatchResult) []BatchOpResult {
	out := make([]BatchOpResult, len(results))
	for i, r := range results {
		out[i] = BatchOpResult{Op: r.Op}
		if r.Addr != 0 {
			out[i].Addr = r.Addr.String()
		}
	}
	return out
}
