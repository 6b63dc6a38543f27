package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"

	"declnet/internal/workload"
)

// Read mix: GET /v1/probe 90%, GET /v1/explain 10%. Destinations: 20%
// SIPs, 5% isolated endpoints (the default-off deny), 25% across clouds,
// the rest in the source's own cloud; Zipf(1.2) within each list.
const (
	explainShare = 0.10
	dstSIPShare  = 0.20
	dstIsoShare  = 0.05
	dstCrossShr  = 0.25
	zipfSkew     = 1.2
)

// Write mix: POST /v1/permit 50%, /v1/eips + /v1/eips/release 30%,
// /v1/bind 15%, /v1/qos 5%. There is no /v1/unbind: at the seed commit
// the reconciler diffs against a view taken before its sweep, so it
// undoes a bind acknowledged during the sweep until the next one puts it
// back, and an unbind sent in between answers 409. A bind (add or
// re-weight) succeeds either way.
const (
	permitShare = 0.50
	eipShare    = 0.30
	bindShare   = 0.15
)

// mixGen draws the single-verb read/write mix for the tenants one worker
// owns. It tracks only abstract state — which ephemeral slots are full,
// each target's toggle — so every op it
// emits succeeds whatever order responses arrive in, and mutations
// never change the verdict of a probed pair.
type mixGen struct {
	lay       *layout
	rng       *rand.Rand
	tenants   []int32
	readShare float64
	zHome     *workload.Zipf
	zPeer     *workload.Zipf
	zIso      *workload.Zipf
	zSIP      *workload.Zipf
	st        map[int32]*genTenant
}

type genTenant struct {
	eph    uint32 // bit i: ephemeral slot i holds an address
	placed int32  // request_eip placement counter
	weight int32  // next bind's weight, cycling 1..4
	extra  []bool // per endpoint slot: the toggled /32 is in its permit list
	qos    int32
}

func newMixGen(lay *layout, seed int64, tenants []int32, readShare float64) *mixGen {
	g := &mixGen{
		lay: lay, rng: rand.New(rand.NewSource(seed)), tenants: tenants, readShare: readShare,
		zHome: workload.NewZipf(seed+1, zipfSkew, uint64(len(lay.homeStable))),
		zPeer: workload.NewZipf(seed+2, zipfSkew, uint64(len(lay.peerStable))),
		zIso:  workload.NewZipf(seed+3, zipfSkew, uint64(len(lay.isolated))),
		zSIP:  workload.NewZipf(seed+4, zipfSkew, stableSIPs),
		st:    make(map[int32]*genTenant, len(tenants)),
	}
	for _, t := range tenants {
		g.st[t] = &genTenant{extra: make([]bool, lay.spec.Endpoints)}
	}
	return g
}

func (g *mixGen) Next() Op {
	t := g.tenants[g.rng.Intn(len(g.tenants))]
	if g.rng.Float64() < g.readShare {
		return g.read(t)
	}
	return g.write(t)
}

func (g *mixGen) read(t int32) Op {
	lay := g.lay
	op := Op{Kind: Probe, Tenant: t, A: lay.stable[g.rng.Intn(len(lay.stable))]}
	if g.rng.Float64() < explainShare {
		op.Kind = Explain
	}
	own, other, zOwn, zOther := lay.homeStable, lay.peerStable, g.zHome, g.zPeer
	if lay.peer[op.A] {
		own, other, zOwn, zOther = other, own, zOther, zOwn
	}
	switch c := g.rng.Float64(); {
	case c < dstSIPShare:
		op.SIP, op.B = true, int32(g.zSIP.Draw())
	case c < dstSIPShare+dstIsoShare:
		op.B, op.Flag = lay.isolated[g.zIso.Draw()], true
	case c < dstSIPShare+dstIsoShare+dstCrossShr:
		op.B = other[zOther.Draw()]
	default:
		op.B = own[zOwn.Draw()]
	}
	return op
}

func (g *mixGen) write(t int32) Op {
	st := g.st[t]
	switch c := g.rng.Float64(); {
	case c < permitShare:
		s := g.lay.stable[g.rng.Intn(len(g.lay.stable))]
		st.extra[s] = !st.extra[s]
		return Op{Kind: SetPermit, Tenant: t, A: s, Flag: st.extra[s]}
	case c < permitShare+eipShare:
		i := int32(g.rng.Intn(ephSlots))
		if st.eph&(1<<i) != 0 {
			st.eph &^= 1 << i
			return Op{Kind: ReleaseEIP, Tenant: t, A: i}
		}
		st.eph |= 1 << i
		st.placed++
		return Op{Kind: RequestEIP, Tenant: t, A: i, B: st.placed}
	case c < permitShare+eipShare+bindShare:
		st.weight = st.weight%4 + 1
		return Op{Kind: Bind, Tenant: t, A: int32(g.rng.Intn(churnBackends)), B: st.weight}
	default:
		st.qos = (st.qos + 1) % 8
		return Op{Kind: SetQoS, Tenant: t, A: st.qos}
	}
}

// stormGen is the noisy tenant: a grant batch, then the batch releasing
// what it granted, forever.
type stormGen struct {
	tenant  int32
	granted bool
}

func (g *stormGen) Next() Op {
	g.granted = !g.granted
	if g.granted {
		return Op{Kind: StormGrant, Tenant: g.tenant}
	}
	return Op{Kind: StormRelease, Tenant: g.tenant}
}

// traceHash fingerprints the first n ops of a source.
func traceHash(src Source, n int) string {
	h := sha256.New()
	var buf [15]byte
	for i := 0; i < n; i++ {
		op := src.Next()
		buf[0] = byte(op.Kind)
		binary.LittleEndian.PutUint32(buf[1:], uint32(op.Tenant))
		binary.LittleEndian.PutUint32(buf[5:], uint32(op.A))
		binary.LittleEndian.PutUint32(buf[9:], uint32(op.B))
		buf[13], buf[14] = 0, 0
		if op.SIP {
			buf[13] = 1
		}
		if op.Flag {
			buf[14] = 1
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
