// Batch writes: ApplyBatch applies a sequence of Table-2 mutations as
// one unit of work. The point is amortization, not transactionality —
// one request, one lock acquisition over exactly the (tenant, region)
// shards the ops touch, and one journal frame, no matter how many
// operations the batch carries. Every other tenant's shards stay free:
// a tenant looping 128-op batches delays nobody but itself.
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

	"declnet/internal/addr"
	"declnet/internal/intent"
	"declnet/internal/permit"
	"declnet/internal/qos"
	"declnet/internal/slo"
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
// On a validation error it returns (nil, *BatchError) with nothing
// applied. On a runtime error at op i it returns the results of ops
// [0, i) and a *BatchError with Index i; those ops stay applied. On
// success it returns one result per op.
//
// The static pass runs before any lock is taken, and besides
// type-checking each op it asks the verb table (Cloud.apply) which shard
// the op will lock. Those keys are static — a "$j" operand stands in as
// an address from the block op j's grant must come from — so the batch's
// whole footprint is known up front: ApplyBatch takes exactly those
// shards' write locks, in ShardKey order (ShardSet.lockShards), and
// holds them across every op and the journal record. A single verb on
// one of those shards therefore sees all of the batch's ops there or
// none, and every other shard never notices the batch. Each op is then
// resolved into its typed form ("$j" now the real grant) and run through
// the same switch single verbs use, with the lock elided. The applied ops are the journal ops:
// one frame for the whole batch (the applied prefix when an op failed),
// so replay applies it atomically.
func (c *Cloud) ApplyBatch(tenant string, ops []BatchOp) ([]BatchResult, error) {
	sop := c.slo.Begin(slo.VerbBatch, tenant, "")
	var keys []ShardKey // distinct: a batch names few shards, many times each
	standIns := make([]BatchResult, len(ops))
	for i := range ops {
		op, err := c.typed(ops, i, standIns)
		if err != nil {
			err = &BatchError{Index: i, Op: ops[i].Op, Err: err}
			sop.End(err)
			return nil, err
		}
		// A routing error here (unknown VM, address not granted yet) is
		// the apply loop's to report; the key is valid regardless.
		k, _ := c.apply(tenant, &op, applyPlan)
		if !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
		if grants(op.Verb) {
			standIns[i].Addr = c.standIn(k)
		}
	}
	stg := sop.StageStart()
	unlock := c.shards.lockShards(keys)
	sop.StageEnd(stg, "shard_wait")
	defer unlock()
	results := make([]BatchResult, 0, len(ops))
	var applied []intent.Op
	var berr error
	for i := range ops {
		op, err := c.typed(ops, i, results)
		if err == nil {
			_, err = c.apply(tenant, &op, applyHeld)
		}
		if err != nil {
			berr = &BatchError{Index: i, Op: ops[i].Op, Err: err}
			break
		}
		res := BatchResult{Op: op.Verb}
		if grants(op.Verb) {
			res.Addr = op.Addr
		}
		results = append(results, res)
		if c.rec != nil {
			applied = append(applied, op)
		}
	}
	if len(applied) > 0 {
		stg = sop.StageStart()
		c.rec.Record(tenant, applied...)
		c.noteRecorded(tenant, applied...)
		sop.StageEnd(stg, "journal")
	}
	sop.End(berr)
	// A batch may have released the tenant's last address; End just
	// recorded into its SLO shard, so re-sweep (zero-delta) to keep the
	// fully-released eviction airtight.
	c.tenantDelta(tenant, 0)
	return results, berr
}

// standIn returns an address inside the block a grant locked under k
// will come from — the region's EIP block, or the provider's SIP block
// — for the static pass to route a "$i" operand by. Zero when k names
// no block (the grant is going to fail).
func (c *Cloud) standIn(k ShardKey) addr.IP {
	for _, b := range c.pidx.Load().blocks {
		if b.shard == k.Region {
			return b.base.Addr
		}
	}
	return 0
}

// grants reports whether a verb's result is a granted address — what a
// "$i" back-reference may name and a BatchResult carries.
func grants(verb string) bool {
	return verb == intent.OpRequestEIP || verb == intent.OpRequestSIP
}

// typed resolves wire op i into the typed op Apply takes, checking verb
// and operand shape, address syntax, back-reference targets and provider
// names on the way. A "$j" operand resolves to prior[j].Addr: in the
// static all-or-nothing pass that is a stand-in inside the block op j
// will be granted from, once the batch is running it is the address op
// j was granted. Only the operands named for a verb are read (see
// BatchOp), so the typed op carries exactly the fields the journal
// records.
func (c *Cloud) typed(ops []BatchOp, i int, prior []BatchResult) (intent.Op, error) {
	b := &ops[i]
	op := intent.Op{Verb: b.Op}
	var err error // the first operand error wins
	ref := func(field, s string) (a addr.IP) {
		if err == nil {
			a, err = batchAddr(ops, i, prior, field, s)
		}
		return a
	}
	need := func(field, s string) string {
		if err == nil && s == "" {
			err = fmt.Errorf("missing %s", field)
		}
		return s
	}
	provider := func() string {
		if _, ok := c.Provider(need("provider", b.Provider)); !ok && err == nil {
			err = fmt.Errorf("unknown provider %q", b.Provider)
		}
		return b.Provider
	}
	switch b.Op {
	case intent.OpRequestEIP:
		op.VM = need("vm", string(b.VM))
	case intent.OpReleaseEIP:
		op.Addr = ref("eip", b.EIP)
	case intent.OpRequestSIP:
		op.Provider = provider()
	case intent.OpReleaseSIP:
		op.Addr = ref("sip", b.SIP)
	case intent.OpBind:
		op.EIP, op.SIP, op.Weight = ref("eip", b.EIP), ref("sip", b.SIP), b.Weight
	case intent.OpUnbind:
		op.EIP, op.SIP = ref("eip", b.EIP), ref("sip", b.SIP)
	case intent.OpSetPermit:
		op.Target, op.Entries, op.Groups = ref("target", b.Target), b.Entries, b.Groups
	case intent.OpPermit, intent.OpRevoke:
		op.Target, op.Entries = ref("target", b.Target), b.Entries
		if err == nil && len(b.Entries) == 0 {
			err = errors.New("missing entries")
		}
	case intent.OpSetQoS:
		op.Provider, op.Region, op.Bps = provider(), need("region", b.Region), b.Bandwidth
	case intent.OpSetPotato:
		op.Provider, op.Policy = provider(), b.Policy.String()
	case intent.OpCreateGroup:
		// The cloud-level (cross-provider) group namespace: no Provider.
		op.Name = need("name", b.Name)
		for _, m := range b.Members {
			op.Members = append(op.Members, ref("members", m))
		}
	case intent.OpRegisterName:
		op.Name, op.Addr = need("name", b.Name), ref("target", b.Target)
	default:
		err = errors.New("unknown op")
	}
	return op, err
}

// batchAddr checks and resolves one address operand of op i: a literal
// address, or a "$j" back-reference to prior[j], the grant made by an
// earlier op.
func batchAddr(ops []BatchOp, i int, prior []BatchResult, field, s string) (addr.IP, error) {
	if s == "" {
		return 0, fmt.Errorf("missing %s", field)
	}
	if !strings.HasPrefix(s, "$") {
		a, err := addr.ParseIP(s)
		if err != nil {
			return 0, fmt.Errorf("%s: %v", field, err)
		}
		return a, nil
	}
	j, err := strconv.Atoi(s[1:])
	if err != nil || j < 0 || j >= i {
		return 0, fmt.Errorf("%s: back-reference %q must name an earlier op", field, s)
	}
	if !grants(ops[j].Op) {
		return 0, fmt.Errorf("%s: back-reference %q targets %q, not an address grant", field, s, ops[j].Op)
	}
	return prior[j].Addr, nil
}
