// Package intent is the durable desired-state store behind the control
// plane: an append-only replay journal of every accepted Table-2
// mutation, a periodic snapshot that lets the journal truncate, and the
// declared-state model (State) both restart recovery and the
// reconciliation engine diff against.
//
// The flow mirrors the hosting-provider convergence loop the paper's
// abstractions imply: tenants *declare* endpoints, permits, binds, and
// QoS; the provider persists the declaration before replying and keeps
// the dataplane converged to it afterwards. Core's Cloud.Apply
// calls Log.Record after validation succeeds and before the verb
// returns; a declnetd restart folds snapshot + journal tail back into
// State and rebuilds the in-memory world from it (core.RestoreIntent).
package intent

import (
	"slices"

	"declnet/internal/addr"
)

// Journal verbs — one per accepted mutation kind. These are the wire
// names (they match the batch API where a batch verb exists) and are
// stable: old journals must replay on new builds.
const (
	OpRequestEIP     = "request_eip"
	OpReleaseEIP     = "release_eip"
	OpRequestSIP     = "request_sip"
	OpReleaseSIP     = "release_sip"
	OpBind           = "bind"
	OpUnbind         = "unbind"
	OpSetPermit      = "set_permit"
	OpPermit         = "permit"
	OpRevoke         = "revoke"
	OpSetQoS         = "set_qos"
	OpSetPotato      = "set_potato"
	OpSetVMEgress    = "set_vm_egress"
	OpCreateGroup    = "create_group"
	OpRegisterName   = "register_name"
	OpUnregisterName = "unregister_name"
)

// Op is one accepted mutation. Verb selects which operand fields are
// meaningful; everything else stays at its zero value and is omitted
// from the frame. Addresses are recorded resolved — a batch's "$i"
// back-references are concretized before journaling, so replay never
// needs batch context.
type Op struct {
	Verb string `json:"verb"`

	VM       string `json:"vm,omitempty"`
	Provider string `json:"provider,omitempty"`
	Region   string `json:"region,omitempty"`
	Name     string `json:"name,omitempty"`

	// Addr carries the granted address of request_eip/request_sip (the
	// verb's *result*, so replay re-claims the same address) and the
	// released address of release_eip/release_sip.
	Addr   addr.IP `json:"addr,omitempty"`
	EIP    addr.IP `json:"eip,omitempty"`
	SIP    addr.IP `json:"sip,omitempty"`
	Target addr.IP `json:"target,omitempty"`

	Weight  int           `json:"weight,omitempty"`
	Entries []addr.Prefix `json:"entries,omitempty"`
	Groups  []string      `json:"groups,omitempty"`
	Members []addr.IP     `json:"members,omitempty"`
	Bps     float64       `json:"bps,omitempty"`
	Policy  string        `json:"policy,omitempty"`

	// Derived, Prev and Next never reach the journal. The verb that
	// applies a set_permit, permit or revoke sets them: Next is the entry
	// set it installed for Target and Prev the installed set it derived
	// Next from (set_permit derives from nothing). State adopts Next
	// rather than deriving the list a second time whenever its declared
	// set equals Prev, so declared and installed hold one slice. Replay
	// has no verb and derives.
	Derived    bool          `json:"-"`
	Prev, Next []addr.Prefix `json:"-"`
}

// Successor returns the entry set a permit or revoke op leaves when
// applied to base: base itself when the op changes nothing, otherwise a
// fresh slice sharing no array with base. base may have two holders, and
// an append into its spare capacity would write under the other one.
func (op *Op) Successor(base []addr.Prefix) []addr.Prefix {
	next := slices.Clip(base)
	for _, e := range op.Entries {
		if op.Verb == OpPermit {
			next = addr.InsertPrefix(next, e)
		} else {
			next = addr.RemovePrefix(next, e)
		}
	}
	return next
}

// Record is one journal frame: every op of one accepted mutation. A
// single verb journals one op; a /v1/batch journals all of its applied
// ops in one record, making the batch atomic under replay — a frame
// either decodes whole (CRC over the full payload) or not at all.
type Record struct {
	Seq    uint64 `json:"seq"`
	Tenant string `json:"tenant,omitempty"`
	Ops    []Op   `json:"ops,omitempty"`
	// Meta stamps world identity (seed, topology size) into a fresh
	// journal so a daemon refuses to replay a journal from a different
	// world. Folded into State.Meta on replay.
	Meta map[string]string `json:"meta,omitempty"`
}
