package main

import (
	"fmt"

	"declnet/internal/api"
)

// Spec sizes the benchmark world. Every workload runs on the same world:
// Tenants × Endpoints EIPs onboarded through POST /v1/batch.
type Spec struct {
	Tenants   int // tenant accounts
	Endpoints int // long-lived EIPs per tenant (stable + isolated)
	Hosts     int // hosts per availability zone (declnetd -hosts)
}

var (
	// fullSpec is 20 000 endpoints: the largest world whose five set-ups,
	// five recoveries and five replayed depths leave a run inside the
	// driver's half minute. The stalls it exposes grow linearly with it.
	fullSpec = Spec{Tenants: 40, Endpoints: 500, Hosts: 8}
	// smokeSpec keeps `go test ./bench/...` under 20 s.
	smokeSpec = Spec{Tenants: 4, Endpoints: 256, Hosts: 8}
)

const (
	ephSlots       = 32 // per-tenant slots request_eip/release_eip churn through
	stormSlots     = 64 // endpoints the noisy tenant grants and releases per batch pair
	stableSIPs     = 4  // SIPs the read mix targets; sip slot stableSIPs is the churn SIP
	backendsPerSIP = 8
	churnBackends  = 8 // stable endpoints the churn SIP binds and re-weights
	batchEndpoints = 64
	zones          = 2

	// extraEntry is the /32 set_permit toggles on and off. It lies
	// outside every provider block, so no probed pair's verdict moves.
	extraEntry = "192.0.2.1/32"
)

// regions is the Figure-1 world's four (provider, region) pairs. Tenant
// t lives in regions[t%4]; its peer region is the same index on the
// other cloud.
var regions = [4]struct{ provider, region string }{
	{"cloudA", "a-east"}, {"cloudA", "a-west"}, {"cloudB", "b-east"}, {"cloudB", "b-west"},
}

// layout is the slot plan every tenant shares: which endpoint slots sit
// in the peer region, which are isolated, and the index lists the
// generator draws from. Slots [0, Endpoints) are long-lived endpoints,
// [Endpoints, Endpoints+ephSlots) ephemeral, then stormSlots storm slots.
type layout struct {
	spec       Spec
	peer, iso  []bool
	stable     []int32 // home+peer stable slots, in slot order
	homeStable []int32
	peerStable []int32
	isolated   []int32
	// place[i] is slot i's position among its region's slots, which
	// picks its host round-robin.
	place []int
}

func newLayout(spec Spec) (*layout, error) {
	l := &layout{spec: spec,
		peer: make([]bool, spec.Endpoints), iso: make([]bool, spec.Endpoints),
		place: make([]int, spec.Endpoints)}
	var nHome, nPeer int
	for i := 0; i < spec.Endpoints; i++ {
		// 1 in 5 in the peer region; 1 in 20 isolated, split over both.
		l.peer[i] = i%5 == 4
		l.iso[i] = i%40 == 3 || i%40 == 24
		if l.peer[i] {
			l.place[i] = nPeer
			nPeer++
		} else {
			l.place[i] = nHome
			nHome++
		}
		s := int32(i)
		switch {
		case l.iso[i]:
			l.isolated = append(l.isolated, s)
		case l.peer[i]:
			l.peerStable = append(l.peerStable, s)
			l.stable = append(l.stable, s)
		default:
			l.homeStable = append(l.homeStable, s)
			l.stable = append(l.stable, s)
		}
	}
	if need := stableSIPs*backendsPerSIP + churnBackends; len(l.homeStable) < need {
		return nil, fmt.Errorf("bench: %d endpoints per tenant leave %d stable home endpoints, need %d for SIP backends",
			spec.Endpoints, len(l.homeStable), need)
	}
	if len(l.peerStable) < 2 || len(l.isolated) < 2 || l.peer[0] || l.iso[0] || !l.peer[4] || l.iso[4] {
		return nil, fmt.Errorf("bench: %d endpoints per tenant is too few", spec.Endpoints)
	}
	return l, nil
}

func (l *layout) slots() int { return l.spec.Endpoints + ephSlots + stormSlots }

func (l *layout) ephSlot(i int32) int32   { return int32(l.spec.Endpoints) + i }
func (l *layout) stormSlot(i int32) int32 { return int32(l.spec.Endpoints+ephSlots) + i }

// sipBackend returns the endpoint slot bound as backend b of SIP s; the
// churn SIP's candidates follow the stable SIPs' backends.
func (l *layout) sipBackend(s, b int) int32 { return l.homeStable[s*backendsPerSIP+b] }

func tenantName(t int32) string { return fmt.Sprintf("t%03d", t) }

// vm names the host for the k-th endpoint a tenant places in a region,
// round-robin over provider/region/az{1,2}/host{1..Hosts}.
func (l *layout) vm(region, k int) string {
	r := regions[region]
	return fmt.Sprintf("%s/%s/az%d/host%d", r.provider, r.region, 1+k%zones, 1+(k/zones)%l.spec.Hosts)
}

// Kind is an abstract operation over slots. The generator never sees an
// address: the Model binds slots to granted addresses from responses.
type Kind uint8

const (
	Probe Kind = iota
	Explain
	SetPermit
	RequestEIP
	ReleaseEIP
	Bind
	SetQoS
	StormGrant   // one batch: stormSlots request_eip + stormSlots set_permit with $i back-references
	StormRelease // one batch: stormSlots release_eip
	// Set-up batches, one tenant at a time, in this order.
	setupFirst // first home and first peer endpoint: their addresses give the two /16s
	setupChunk // request_eip + set_permit($i) for slots [A, B)
	setupSIPs  // request_sip ×5, their permit lists, the stable binds
	setupLists // literal-target permit lists: isolated endpoints' own /32 and the first two endpoints
)

var kindNames = [...]string{"probe", "explain", "set_permit", "request_eip", "release_eip", "bind",
	"set_qos", "storm_grant", "storm_release", "setup_first", "setup_chunk", "setup_sips", "setup_lists"}

func (k Kind) String() string { return kindNames[k] }

// Class groups kinds the way the metrics do.
type Class uint8

const (
	Read Class = iota
	Write
	Batch
	nClasses
)

var classNames = [nClasses]string{"read", "write", "batch"}

func (k Kind) Class() Class {
	switch {
	case k <= Explain:
		return Read
	case k <= SetQoS:
		return Write
	}
	return Batch
}

// Op is one abstract operation.
//
//	Probe/Explain   A = source slot, B = destination slot, or SIP index when SIP; Flag = the model expects a deny
//	SetPermit       A = target slot; Flag = the toggled extra /32 is present
//	RequestEIP      A = ephemeral index, B = placement counter
//	ReleaseEIP      A = ephemeral index
//	Bind            A = churn backend index, B = weight
//	SetQoS          A = bandwidth step
//	setupChunk      slots [A, B)
type Op struct {
	Kind   Kind
	Tenant int32
	A, B   int32
	SIP    bool
	Flag   bool
}

// Source yields a deterministic operation sequence. It never reads the
// clock and never sees a response.
type Source interface{ Next() Op }

// Call is an operation bound to concrete addresses, ready for an
// Executor. Batch calls carry their ops in wire form.
type Call struct {
	Kind     Kind
	Tenant   string
	Src, Dst string   // Probe, Explain
	EIP, SIP string   // ReleaseEIP, Bind
	Weight   int      // Bind
	VM       string   // RequestEIP
	Target   string   // SetPermit
	Entries  []string // SetPermit
	Provider string   // SetQoS
	Region   string
	Bps      float64
	Ops      []api.BatchOpRequest
}

// Verbs is how many Table-2 verbs the call carries: a batch counts
// each of its ops.
func (c *Call) Verbs() int {
	if len(c.Ops) > 0 {
		return len(c.Ops)
	}
	return 1
}

// Result is what an Executor observed.
type Result struct {
	Err       error // transport failure or timeout
	Status    int
	Addr      string   // RequestEIP
	Addrs     []string // batch: granted address per op, "" for non-grants
	Applied   int      // batch
	Reachable bool     // Explain
	HasRTT    bool     // Probe
	ReqBytes  int
	RespBytes int
}

// Executor performs one call against the system under test.
type Executor interface{ Do(c *Call) Result }
