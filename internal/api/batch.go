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
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"declnet/internal/addr"
	"declnet/internal/core"
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

// batchBuf is one /v1/batch request's memory, recycled through
// batchBufs: the body, which the reply overwrites once the ops are
// applied, and the ops decoded from it. The decoder copies every string
// it keeps out of the body, so nothing of it outlives the request.
type batchBuf struct {
	buf []byte // the body, then the reply
	at  int    // the decoder's offset into buf
	ops []core.BatchOp
	// held counts the slots of ops an "ops" array has written since the
	// field was last null or empty: a repeated key decodes into them.
	held int
	// policy holds each op's wire policy, bad the permit entries that did
	// not parse; finish settles both once the whole body has decoded.
	policy []string
	bad    []string
	// Scratch for the string and entry arrays being decoded.
	texts    []string
	prefixes []addr.Prefix
}

var batchBufs = sync.Pool{New: func() any { return new(batchBuf) }}

// A recycled batchBuf keeps at most maxKeptOps ops and a buffer of 128
// bytes per op: a rare huge batch is left to the collector.
const maxKeptOps = 1024

// release returns b to the pool, cleared (reset).
func (b *batchBuf) release() {
	if b.reset() {
		batchBufs.Put(b)
	}
}

// reset clears b, so nothing pins a decoded entry, group or member and a
// reused slot reads as a fresh one, and reports whether b is small
// enough to keep.
func (b *batchBuf) reset() bool {
	clear(b.ops[:cap(b.ops)])
	clear(b.policy[:cap(b.policy)])
	clear(b.bad)
	*b = batchBuf{buf: b.buf[:0], ops: b.ops[:0], policy: b.policy[:0], bad: b.bad[:0],
		texts: b.texts, prefixes: b.prefixes}
	return cap(b.ops) <= maxKeptOps && cap(b.buf) <= 128*maxKeptOps
}

func (s *Server) batch(w http.ResponseWriter, r *http.Request) {
	b := batchBufs.Get().(*batchBuf)
	defer b.release()
	body := bytes.NewBuffer(b.buf[:0])
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody))
	b.buf = body.Bytes()
	if err != nil {
		writeBodyErr(w, err)
		return
	}
	tenant, err := b.decode()
	if err != nil {
		writeBodyErr(w, err)
		return
	}
	logTenant(w, tenant)
	if len(b.ops) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("api: empty batch"))
		return
	}
	if err := b.finish(); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	results, err := s.world.Cloud.ApplyBatch(tenant, b.ops)
	code := http.StatusOK
	if err != nil {
		if results == nil {
			// Static validation failed: nothing was applied.
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		code = http.StatusConflict
	}
	b.buf = appendBatchResponse(b.buf[:0], results, err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b.buf)
}

// appendBatchResponse appends the BatchResponse for results and err to
// b: the bytes json.Encoder writes for it, trailing newline included.
func appendBatchResponse(b []byte, results []core.BatchResult, err error) []byte {
	b = append(b, `{"applied":`...)
	b = strconv.AppendInt(b, int64(len(results)), 10)
	b = append(b, `,"results":[`...)
	for i, r := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(append(b, `{"op":`...), r.Op)
		if r.Addr != 0 {
			b = append(r.Addr.AppendTo(append(b, `,"addr":"`...)), '"')
		}
		b = append(b, '}')
	}
	b = append(b, ']')
	if err != nil {
		if msg := err.Error(); msg != "" {
			b = appendJSONString(append(b, `,"error":`...), msg)
		}
		var be *core.BatchError
		if errors.As(err, &be) {
			b = strconv.AppendInt(append(b, `,"failed_index":`...), int64(be.Index), 10)
		}
	}
	return append(b, "}\n"...)
}

// appendJSONString appends s as encoding/json writes it, HTML characters
// escaped: verbatim in quotes when nothing in it needs escaping.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}
