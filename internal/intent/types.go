// Package intent is the durable desired-state store behind the control
// plane: an append-only replay journal of every accepted Table-2
// mutation, a periodic snapshot that lets the journal truncate, and the
// declared-state model (State) both restart recovery and the
// reconciliation engine diff against.
//
// The flow mirrors the hosting-provider convergence loop the paper's
// abstractions imply: tenants *declare* endpoints, permits, binds, and
// QoS; the provider persists the declaration before replying and keeps
// the dataplane converged to it afterwards. Core checks each op against
// State, folds it there and journals the frame (Log.Begin, Frame.Fold,
// Frame.Record) before the verb returns; a declnetd restart folds
// snapshot + journal tail back into State and rebuilds the in-memory
// world from it (core.RestoreIntent).
package intent

import (
	"slices"

	"declnet/internal/addr"
)

// Journal verbs — one per accepted mutation kind. These are the wire
// names (they match the batch API where a batch verb exists). A journal
// frame names its verb by code (journal.go's verbCodes), not by these.
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

	// Prev and Next never reach the journal. For a set_permit, Next is an
	// input: the entry set the verb asked State.PermitSet for, which the
	// fold holds as the declared list instead of looking it up again
	// (replay has no verb and looks it up). For every permit op they are
	// the fold's output: the declared list before and after, held by the
	// state, so that the install can adopt Next whenever the installed list
	// is Prev, and declared and installed hold one record.
	Prev, Next *addr.PrefixSet `json:"-"`
}

// Successor returns the entry set a permit or revoke op leaves when
// applied to base: base itself when the op changes nothing, otherwise a
// new set sharing no array with base. base may have any number of
// holders, and an append into its spare capacity would write under them.
// It is how an installed list that drifted from the declared one derives
// its successor; the fold derives the declared one in scratch space and
// holds the result (State.repermit).
func (op *Op) Successor(base *addr.PrefixSet) *addr.PrefixSet {
	next := slices.Clip(base.Entries())
	for _, e := range op.Entries {
		if op.Verb == OpPermit {
			next = addr.InsertPrefix(next, e)
		} else {
			next = addr.RemovePrefix(next, e)
		}
	}
	if base != nil && len(next) == base.Len() { // a permit only grows, a revoke only shrinks
		return base
	}
	return addr.AdoptPrefixSet(next)
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
