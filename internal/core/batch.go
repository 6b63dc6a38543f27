// Batch writes: ApplyBatch applies a sequence of wire-form Table-2
// mutations as one unit of work, and is how every HTTP mutation route
// applies — a single-verb route's body is a batch of one. BatchOp is the
// one wire op and typed the one conversion from it to an intent.Op; the
// ops then run through Cloud.apply (apply.go) like the Go facade's. The
// point is amortization, not transactionality — one request, one lock
// acquisition over exactly the (tenant, region) shards the ops touch,
// and one journal frame, no matter how many operations the batch
// carries. Every other tenant's shards stay free: a tenant looping
// 128-op batches delays nobody but itself.
//
// Semantics: the whole batch is statically validated up front (unknown
// verbs, missing operands, malformed addresses, dangling back-references,
// unknown providers) and rejected wholesale — nothing applied — on any
// validation error. At apply time, operations run in order; the first
// runtime failure stops the batch and is reported as a *BatchError
// carrying the failing index. Operations already applied stay applied
// (no rollback): every verb here is idempotent to re-issue or cheap to
// reverse, and partial results are returned so the caller knows exactly
// how far it got.
//
// Back-references: an address operand may be written "$i" to mean "the
// address granted by op i of this same batch" (op i must be a
// request_eip or request_sip at a smaller index). This is what lets a
// single batch request an EIP and then bind and permit it.
package core

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/permit"
	"declnet/internal/qos"
	"declnet/internal/topo"
)

// BatchOp is one mutation in a batch. Op selects the verb; the other
// fields are its operands (a field not named for a verb is ignored).
// Address-valued strings (EIP, SIP, Target, Members) accept dotted-quad
// addresses or "$i" back-references.
//
//	request_eip    VM                       -> grants an EIP (result Addr)
//	release_eip    EIP
//	request_sip    Provider                 -> grants a SIP (result Addr)
//	release_sip    SIP
//	bind           EIP, SIP, Weight
//	unbind         EIP, SIP
//	set_permit     Target, Entries, Groups  (replaces the permit list)
//	permit         Target, Entries          (adds each entry)
//	revoke         Target, Entries          (removes each entry)
//	set_qos        Provider, Region, Bandwidth
//	set_potato     Provider, Policy
//	create_group   Name, Members
//	register_name  Name, Target
type BatchOp struct {
	Op string `json:"op"`

	VM        topo.NodeID      `json:"vm,omitempty"`
	Provider  string           `json:"provider,omitempty"`
	EIP       string           `json:"eip,omitempty"`
	SIP       string           `json:"sip,omitempty"`
	Target    string           `json:"target,omitempty"`
	Weight    int              `json:"weight,omitempty"`
	Entries   []permit.Entry   `json:"-"`
	Groups    []string         `json:"groups,omitempty"`
	Region    string           `json:"region,omitempty"`
	Bandwidth float64          `json:"bandwidth_bps,omitempty"`
	Policy    qos.PotatoPolicy `json:"-"`
	Name      string           `json:"name,omitempty"`
	Members   []string         `json:"members,omitempty"`
}

// BatchResult is the outcome of one applied op. Addr is the granted
// address for request_eip/request_sip and zero otherwise.
type BatchResult struct {
	Op   string  `json:"op"`
	Addr addr.IP `json:"addr,omitempty"`
}

// BatchError reports the first op that failed, with its index. For a
// validation error nothing was applied; for a runtime error the caller
// also receives the results of the ops before Index, which stay applied.
type BatchError struct {
	Index int
	Op    string
	Err   error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("core: batch op %d (%s): %v", e.Index, e.Op, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// ApplyBatch validates and applies ops for the tenant as one batch.
// On a validation error it returns nil results with nothing applied: a
// tenant name intent.CheckTenant refuses, or a *BatchError naming the
// op. On a runtime error at op i it returns the results of ops
// [0, i) and a *BatchError with Index i; those ops stay applied. When
// the store's journal fails, or has failed, it returns intent.ErrFailed
// itself: the ops it reports are applied in memory but not durable. On
// success it returns one result per op.
//
// The static pass types each op once (typed) into a pooled frame of
// intent.Ops, before any lock is taken; a "$j" operand becomes a backRef
// next to the frame. Cloud.apply then runs the frame: it plans the
// whole footprint from static keys, holds exactly those shards across
// every op and the journal record, and journals the applied prefix as
// one record, so replay applies it atomically. A single verb on one of
// those shards therefore sees all of the batch's ops there or none, and
// every other shard never notices the batch. The frame goes back to its
// pool once Record returns (it keeps nothing of its ops): an op costs
// its own work and no more.
func (c *Cloud) ApplyBatch(tenant string, ops []BatchOp) ([]BatchResult, error) {
	if err := intent.CheckTenant(tenant); err != nil {
		return nil, err
	}
	pool := &frames
	if len(ops) == 1 {
		pool = &verbFrames
	}
	f := pool.Get().(*frame)
	defer f.put(pool)
	f.ops = slices.Grow(f.ops, len(ops))[:len(ops)]
	for i := range ops {
		if err := c.typed(ops, i, &f.ops[i], &f.refs); err != nil {
			return nil, &BatchError{Index: i, Op: ops[i].Op, Err: err}
		}
	}
	n, err := c.apply(tenant, f.ops, f.refs)
	results := make([]BatchResult, n)
	for i := range results {
		results[i].Op = f.ops[i].Verb
		if grants(f.ops[i].Verb) {
			results[i].Addr = f.ops[i].Addr
		}
	}
	if err != nil && n < len(ops) && !errors.Is(err, intent.ErrFailed) {
		err = &BatchError{Index: n, Op: ops[n].Op, Err: err}
	}
	return results, err
}

// frame is one batch's typed ops, the journal frame, and the back-
// references among them, recycled through frames, or verbFrames for a
// single verb's one op: a batch never draws a frame a single verb left
// one op long.
type frame struct {
	ops  []intent.Op
	refs []backRef
}

var (
	frames     = sync.Pool{New: func() any { return new(frame) }}
	verbFrames = sync.Pool{New: func() any { return new(frame) }}
)

// maxPooledFrame bounds the ops a recycled frame keeps: a rare huge batch
// is left to the collector rather than pinned in the pool.
const maxPooledFrame = 1024

// put clears the frame, so the pool pins no entry set or endpoint, and
// recycles it through pool.
func (f *frame) put(pool *sync.Pool) {
	if cap(f.ops) > maxPooledFrame {
		return
	}
	clear(f.ops)
	clear(f.refs)
	f.ops, f.refs = f.ops[:0], f.refs[:0]
	pool.Put(f)
}

// typed converts wire op i into the typed op at *op, checking verb and
// operand shape, address syntax and back-reference targets on the way,
// then the operand rules every door shares (checkOperands). A "$j"
// operand is left zero and its slot appended to refs, for Cloud.apply to
// fill with op j's grant. Only the operands named for a verb are read
// (see BatchOp), so the typed op carries exactly the fields the journal
// records.
func (c *Cloud) typed(ops []BatchOp, i int, op *intent.Op, refs *[]backRef) error {
	b := &ops[i]
	*op = intent.Op{Verb: b.Op}
	var err error // the first operand error wins
	ref := func(field, s string, at *addr.IP) {
		if err != nil {
			return
		}
		var j int
		if *at, j, err = batchAddr(ops, i, field, s); j >= 0 {
			*refs = append(*refs, backRef{op: i, j: j, at: at})
		}
	}
	switch b.Op {
	case intent.OpRequestEIP:
		op.VM = string(b.VM)
	case intent.OpReleaseEIP:
		ref("eip", b.EIP, &op.Addr)
	case intent.OpRequestSIP:
		op.Provider = b.Provider
	case intent.OpReleaseSIP:
		ref("sip", b.SIP, &op.Addr)
	case intent.OpBind:
		ref("eip", b.EIP, &op.EIP)
		ref("sip", b.SIP, &op.SIP)
		op.Weight = b.Weight
	case intent.OpUnbind:
		ref("eip", b.EIP, &op.EIP)
		ref("sip", b.SIP, &op.SIP)
	case intent.OpSetPermit:
		ref("target", b.Target, &op.Target)
		op.Entries, op.Groups = b.Entries, b.Groups
	case intent.OpPermit, intent.OpRevoke:
		ref("target", b.Target, &op.Target)
		op.Entries = b.Entries
		if err == nil && len(b.Entries) == 0 {
			err = errors.New("missing entries")
		}
	case intent.OpSetQoS:
		op.Provider, op.Region, op.Bps = b.Provider, b.Region, b.Bandwidth
	case intent.OpSetPotato:
		op.Provider, op.Policy = b.Provider, b.Policy.String()
	case intent.OpCreateGroup:
		// The cloud-level (cross-provider) group namespace: no Provider.
		op.Name = b.Name
		if len(b.Members) > 0 {
			op.Members = make([]addr.IP, len(b.Members))
			for k, m := range b.Members {
				ref("members", m, &op.Members[k])
			}
		}
	case intent.OpRegisterName:
		op.Name = b.Name
		ref("target", b.Target, &op.Addr)
	default:
		err = errors.New("unknown op")
	}
	if err == nil {
		err = c.checkOperands(op)
	}
	return err
}

// checkOperands holds the operand rules of a verb's typed op that need no
// lock and no grant: a request_eip names a VM, create_group and
// register_name a name, set_qos a region, and request_sip, set_qos and
// set_potato a known provider. Both doors run it on every op before any
// op runs — typed for a wire op, Cloud.Apply for a facade op — so an op
// that breaks one is refused with nothing applied or journaled.
func (c *Cloud) checkOperands(op *intent.Op) error {
	switch op.Verb {
	case intent.OpRequestEIP:
		if op.VM == "" {
			return errors.New("missing vm")
		}
	case intent.OpCreateGroup, intent.OpRegisterName:
		if op.Name == "" {
			return errors.New("missing name")
		}
	case intent.OpRequestSIP, intent.OpSetQoS, intent.OpSetPotato:
		if op.Provider == "" {
			return errors.New("missing provider")
		}
		if _, ok := c.Provider(op.Provider); !ok {
			return fmt.Errorf("unknown provider %q", op.Provider)
		}
		if op.Verb == intent.OpSetQoS && op.Region == "" {
			return errors.New("missing region")
		}
	}
	return nil
}

// batchAddr checks one address operand of op i: a literal address, or a
// "$j" back-reference to the grant of an earlier op j, which it returns
// (-1 for a literal).
func batchAddr(ops []BatchOp, i int, field, s string) (addr.IP, int, error) {
	if s == "" {
		return 0, -1, fmt.Errorf("missing %s", field)
	}
	if !strings.HasPrefix(s, "$") {
		a, err := addr.ParseIP(s)
		if err != nil {
			return 0, -1, fmt.Errorf("%s: %v", field, err)
		}
		return a, -1, nil
	}
	j, err := strconv.Atoi(s[1:])
	if err != nil || j < 0 || j >= i {
		return 0, -1, fmt.Errorf("%s: back-reference %q must name an earlier op", field, s)
	}
	if !grants(ops[j].Op) {
		return 0, -1, fmt.Errorf("%s: back-reference %q targets %q, not an address grant", field, s, ops[j].Op)
	}
	return 0, j, nil
}
