// The mutation plane. Every Table-2 mutation route — POST /v1/batch
// and the nine single-verb routes — reads its body into one pooled
// batchBuf, decodes it in one hand-written pass straight into
// []core.BatchOp (batchjson.go), applies the ops with core.ApplyBatch
// and append-encodes the reply into the same buffer. A /v1/batch body
// carries many ops; ApplyBatch applies them under one acquisition of
// exactly the (tenant, region) shards they touch and journals them as
// one record, so onboarding N endpoints costs one round trip, one lock
// acquisition and one journal append instead of N — and delays no other
// tenant's requests while it runs. A single-verb route's body is one op
// of its verb, applied as a batch of one.
//
// One status contract holds on every route: 400 means the body did not
// decode or an op failed static validation, and NOTHING was applied;
// 409 means an op failed as it ran — a /v1/batch response carries the
// results of the ops that were applied (and stay applied) plus the
// failing index; 413 means the body was over maxBody; 200 means every
// op applied.
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
	"declnet/internal/intent"
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

// batchBuf is one mutation request's memory, recycled through its
// route's pool: the body, which the reply overwrites once the ops are
// applied, and the ops decoded from it. The decoder copies every string
// it keeps out of the body, so nothing of it outlives the request.
type batchBuf struct {
	rt  route  // the route the body is for
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

// A recycled batchBuf keeps at most maxKeptOps ops and a buffer of 128
// bytes per op: a rare huge batch is left to the collector.
const maxKeptOps = 1024

// release returns b to pool, cleared (reset).
func (b *batchBuf) release(pool *sync.Pool) {
	if b.reset() {
		pool.Put(b)
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

// A route is one mutation route's body shape and reply. The zero route
// is /v1/batch, whose body is {tenant, ops}. A single-verb route's body
// is one op of verb: the tenant plus the keys of the route's request
// struct, which are the names BatchOpRequest gives those operands.
type route struct {
	verb  string
	keys  []string
	reply string // the address field of a 200: "eip", "sip", or "" for {}
}

// verbRoutes are the single-verb mutation routes.
var verbRoutes = []struct {
	path string
	route
}{
	{"/v1/eips", route{intent.OpRequestEIP, []string{"tenant", "vm"}, "eip"}},
	{"/v1/eips/release", route{intent.OpReleaseEIP, []string{"tenant", "eip"}, ""}},
	{"/v1/sips", route{intent.OpRequestSIP, []string{"tenant", "provider"}, "sip"}},
	{"/v1/bind", route{intent.OpBind, []string{"tenant", "eip", "sip", "weight"}, ""}},
	{"/v1/unbind", route{intent.OpUnbind, []string{"tenant", "eip", "sip", "weight"}, ""}}, // BindRequest; weight is ignored
	{"/v1/permit", route{intent.OpSetPermit, []string{"tenant", "target", "entries", "groups"}, ""}},
	{"/v1/qos", route{intent.OpSetQoS, []string{"tenant", "provider", "region", "bandwidth_bps"}, ""}},
	{"/v1/potato", route{intent.OpSetPotato, []string{"tenant", "provider", "policy"}, ""}},
	{"/v1/groups", route{intent.OpCreateGroup, []string{"tenant", "name", "members"}, ""}},
	{"/v1/names", route{intent.OpRegisterName, []string{"tenant", "name", "target"}, ""}},
}

// mutation serves the mutation route rt.
func (s *Server) mutation(rt route) http.HandlerFunc {
	// Each route recycles its own buffers, so a batch never draws one a
	// single verb left one op long.
	bufs := &sync.Pool{New: func() any { return new(batchBuf) }}
	return func(w http.ResponseWriter, r *http.Request) {
		b := bufs.Get().(*batchBuf)
		defer b.release(bufs)
		b.rt = rt
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
		results, err := s.cloud.ApplyBatch(tenant, b.ops)
		if errors.Is(err, intent.ErrFailed) {
			// The store failed this frame or an earlier one: nothing is
			// acknowledged until a restart recovers the durable prefix.
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		code := http.StatusOK
		if err != nil {
			code = http.StatusConflict
			if results == nil { // static validation failed: nothing was applied
				code = http.StatusBadRequest
			}
			var be *core.BatchError
			if rt.verb != "" && errors.As(err, &be) {
				err = be.Err // the body is its one op: no "batch op 0" to name
			}
			if rt.verb != "" || results == nil {
				writeErr(w, code, err)
				return
			}
		}
		b.buf = rt.appendReply(b.buf[:0], results, err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		w.Write(b.buf)
	}
}

// appendReply appends rt's reply to the applied results: the bytes
// json.Encoder writes for a BatchResponse, an EIPResponse, an
// SIPResponse or an empty object, trailing newline included.
func (rt route) appendReply(b []byte, results []core.BatchResult, err error) []byte {
	switch {
	case rt.verb == "":
		return appendBatchResponse(b, results, err)
	case rt.reply == "":
		return append(b, "{}\n"...)
	}
	b = append(append(append(b, `{"`...), rt.reply...), `":"`...)
	return append(results[0].Addr.AppendTo(b), "\"}\n"...)
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
