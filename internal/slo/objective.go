// Declared objectives, burn-rate evaluation, and the noisy-neighbor
// detector.
//
// A tenant registers targets at onboard ("connect p99 under 5ms,
// permit lag p99 under 1ms"); the plane evaluates them over the sliding
// detector windows and reports burn rate — the ratio of the observed
// violation fraction to the objective's error budget (1% for a p99
// target), so 1.0 means the budget is being spent exactly as fast as
// allowed and 10 means ten times too fast.
//
// The detector compares each shard's current-window connect p99 to its
// own trailing baseline window: a shard whose p99 exceeds the baseline
// by breachFactor (the E13 storm/idle bound, 1.5×) is
// breached, and the shard with the dominant mutation count this window
// is named as the suspected noisy neighbor via an obs-style cause
// chain.
package slo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"declnet/internal/metrics"
	"declnet/internal/obs"
)

// Objective is one tenant's declared SLO targets; zero fields are
// unset.
type Objective struct {
	// ConnectP99 bounds the tenant's connect/probe service-time p99.
	ConnectP99 time.Duration `json:"connect_p99_ns,omitempty"`
	// PermitLagP99 bounds the permit-propagation-lag p99.
	PermitLagP99 time.Duration `json:"permit_lag_p99_ns,omitempty"`
}

// String renders the objective in ParseObjective's wire format,
// omitting unset fields; the two round-trip exactly (fuzzed).
func (o Objective) String() string {
	var parts []string
	if o.ConnectP99 > 0 {
		parts = append(parts, "connect_p99="+o.ConnectP99.String())
	}
	if o.PermitLagP99 > 0 {
		parts = append(parts, "permit_lag_p99="+o.PermitLagP99.String())
	}
	return strings.Join(parts, ";")
}

// ParseObjective parses "connect_p99=5ms;permit_lag_p99=1ms" — ';'
// separated key=value pairs, Go duration values, unknown keys and
// duplicates rejected. An empty or all-unset spec is an error: an
// objective with no targets guards nothing.
func ParseObjective(s string) (Objective, error) {
	var o Objective
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return Objective{}, fmt.Errorf("slo: %q is not key=value", part)
		}
		k = strings.TrimSpace(k)
		if seen[k] {
			return Objective{}, fmt.Errorf("slo: duplicate key %q", k)
		}
		seen[k] = true
		d, err := time.ParseDuration(strings.TrimSpace(v))
		if err != nil {
			return Objective{}, fmt.Errorf("slo: %s: %w", k, err)
		}
		if d <= 0 {
			return Objective{}, fmt.Errorf("slo: %s must be positive, got %v", k, d)
		}
		switch k {
		case "connect_p99":
			o.ConnectP99 = d
		case "permit_lag_p99":
			o.PermitLagP99 = d
		default:
			return Objective{}, fmt.Errorf("slo: unknown objective key %q", k)
		}
	}
	if o == (Objective{}) {
		return Objective{}, fmt.Errorf("slo: objective %q sets no targets", s)
	}
	return o, nil
}

// SetObjective registers (or replaces) a tenant's targets; nil-safe.
func (p *Plane) SetObjective(tenant string, o Objective) {
	if p == nil {
		return
	}
	p.objMu.Lock()
	p.objectives[tenant] = o
	p.objMu.Unlock()
}

// ObjectiveOf returns a tenant's registered targets.
func (p *Plane) ObjectiveOf(tenant string) (Objective, bool) {
	if p == nil {
		return Objective{}, false
	}
	p.objMu.RLock()
	o, ok := p.objectives[tenant]
	p.objMu.RUnlock()
	return o, ok
}

// OnBreach installs the callback the detector fires once per (victim
// shard, window generation) — the core wires it into the decision
// tracer so breaches land in the victim tenant's trace ring.
func (p *Plane) OnBreach(fn func(tenant, detail, cause string)) {
	if p == nil {
		return
	}
	p.breachMu.Lock()
	p.onBreach = fn
	p.breachMu.Unlock()
}

// budget is the error budget of a p99 target: 1% of requests may miss.
const budget = 0.01

// VerbStats summarizes one verb's cumulative service time in a shard.
type VerbStats struct {
	Verb   string  `json:"verb"`
	Count  uint64  `json:"count"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	MeanUS float64 `json:"mean_us"`
}

// ShardReport is one (tenant, region) shard's accounting as served by
// GET /v1/slo.
type ShardReport struct {
	Shard  string `json:"shard"`
	Tenant string `json:"tenant"`
	Region string `json:"region,omitempty"`

	Verbs []VerbStats `json:"verbs,omitempty"`

	LagCount uint64  `json:"permit_lag_count,omitempty"`
	LagP99US float64 `json:"permit_lag_p99_us,omitempty"`

	// Window* describe the current detector window, Baseline* the
	// trailing one.
	WindowCount     uint64  `json:"window_count"`
	WindowP99US     float64 `json:"window_p99_us"`
	BaselineCount   uint64  `json:"baseline_count"`
	BaselineP99US   float64 `json:"baseline_p99_us"`
	WindowMutations uint64  `json:"window_mutations"`
}

// ObjectiveStatus is a tenant's targets evaluated against observation.
type ObjectiveStatus struct {
	Spec string `json:"spec"`

	ConnectP99TargetUS float64 `json:"connect_p99_target_us,omitempty"`
	ConnectP99US       float64 `json:"connect_p99_us"`
	ConnectBurnRate    float64 `json:"connect_burn_rate"`

	PermitLagP99TargetUS float64 `json:"permit_lag_p99_target_us,omitempty"`
	PermitLagP99US       float64 `json:"permit_lag_p99_us"`
	PermitLagBurnRate    float64 `json:"permit_lag_burn_rate"`

	Met bool `json:"met"`
}

// TenantReport is one tenant's slice of GET /v1/slo.
type TenantReport struct {
	Tenant    string           `json:"tenant"`
	Objective *ObjectiveStatus `json:"objective,omitempty"`
	Shards    []ShardReport    `json:"shards"`
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// Report evaluates the plane for one tenant ("" for all), sorted by
// tenant then shard. Burn rates are computed over the current plus
// baseline windows so a fresh rotation doesn't blank the signal.
func (p *Plane) Report(tenant string) []TenantReport {
	if p == nil {
		return nil
	}
	snaps := p.Snapshot()
	byTenant := make(map[string][]ShardSnap)
	for _, s := range snaps {
		if tenant != "" && s.Key.Tenant != tenant {
			continue
		}
		byTenant[s.Key.Tenant] = append(byTenant[s.Key.Tenant], s)
	}
	// A tenant with a registered objective but no traffic yet still
	// reports (empty shards, unmet burn of zero).
	p.objMu.RLock()
	for t := range p.objectives {
		if tenant != "" && t != tenant {
			continue
		}
		if _, ok := byTenant[t]; !ok {
			byTenant[t] = nil
		}
	}
	p.objMu.RUnlock()
	names := make([]string, 0, len(byTenant))
	for t := range byTenant {
		names = append(names, t)
	}
	sort.Strings(names)
	out := make([]TenantReport, 0, len(names))
	for _, t := range names {
		tr := TenantReport{Tenant: t}
		// Tenant-wide merged views for objective evaluation.
		var connCum, lagCum, connWin, lagWin metrics.HistSnap
		for _, s := range byTenant[t] {
			var verbs []VerbStats
			for v := 0; v < int(nVerbs); v++ {
				h := s.Verbs[v]
				if h.Count == 0 {
					continue
				}
				verbs = append(verbs, VerbStats{
					Verb:   Verb(v).String(),
					Count:  h.Count,
					P50US:  us(h.Quantile(0.50)),
					P99US:  us(h.Quantile(0.99)),
					MeanUS: us(h.Mean()),
				})
			}
			tr.Shards = append(tr.Shards, ShardReport{
				Shard:           s.Key.String(),
				Tenant:          s.Key.Tenant,
				Region:          s.Key.Region,
				Verbs:           verbs,
				LagCount:        s.Lag.Count,
				LagP99US:        us(s.Lag.Quantile(0.99)),
				WindowCount:     s.WinConn.Count,
				WindowP99US:     us(s.WinConn.Quantile(0.99)),
				BaselineCount:   s.BaseCon.Count,
				BaselineP99US:   us(s.BaseCon.Quantile(0.99)),
				WindowMutations: s.WinMut,
			})
			connCum.Merge(s.Verbs[VerbConnect])
			connCum.Merge(s.Verbs[VerbProbe])
			lagCum.Merge(s.Lag)
			connWin.Merge(s.WinConn)
			connWin.Merge(s.BaseCon)
			lagWin.Merge(s.WinLag)
			lagWin.Merge(s.BaseLag)
		}
		if o, ok := p.ObjectiveOf(t); ok {
			st := &ObjectiveStatus{Spec: o.String(), Met: true}
			if o.ConnectP99 > 0 {
				st.ConnectP99TargetUS = us(o.ConnectP99)
				st.ConnectP99US = us(connCum.Quantile(0.99))
				st.ConnectBurnRate = burnRate(connWin, o.ConnectP99)
				if st.ConnectBurnRate > 1 {
					st.Met = false
				}
			}
			if o.PermitLagP99 > 0 {
				st.PermitLagP99TargetUS = us(o.PermitLagP99)
				st.PermitLagP99US = us(lagCum.Quantile(0.99))
				st.PermitLagBurnRate = burnRate(lagWin, o.PermitLagP99)
				if st.PermitLagBurnRate > 1 {
					st.Met = false
				}
			}
			tr.Objective = st
		}
		out = append(out, tr)
	}
	return out
}

// burnRate is (fraction of samples over target) / error budget.
func burnRate(s metrics.HistSnap, target time.Duration) float64 {
	if s.Count == 0 {
		return 0
	}
	frac := float64(s.CountOver(target)) / float64(s.Count)
	return frac / budget
}

// Breach is one detector finding: a shard whose current-window p99
// exceeded its trailing baseline by the breach factor, with the
// dominant mutator this window named as suspect.
type Breach struct {
	Shard  string `json:"shard"`
	Tenant string `json:"tenant"`
	Region string `json:"region,omitempty"`

	CurP99US  float64 `json:"cur_p99_us"`
	BaseP99US float64 `json:"base_p99_us"`
	Ratio     float64 `json:"ratio"`
	CurCount  uint64  `json:"cur_count"`
	BaseCount uint64  `json:"base_count"`

	Suspect    string `json:"suspect,omitempty"`
	SuspectOps uint64 `json:"suspect_ops,omitempty"`

	// Cause is the decision-trace cause chain naming the breach and its
	// suspected neighbor, in obs's " <- " format.
	Cause string `json:"cause"`
}

// HealthReport is GET /v1/health: overall status plus any breaches.
type HealthReport struct {
	Status    string   `json:"status"` // "ok" | "degraded"
	WindowGen uint64   `json:"window_gen"`
	Factor    float64  `json:"breach_factor"`
	Breaches  []Breach `json:"breaches,omitempty"`
}

// Health runs the noisy-neighbor detector over the current snapshot.
// Each new breach (per shard per window generation) also fires the
// OnBreach callback, landing a slo-breach event in the victim's
// decision trace. Nil-safe.
func (p *Plane) Health() HealthReport {
	if p == nil {
		return HealthReport{Status: "ok"}
	}
	snaps := p.Snapshot()
	rep := HealthReport{Status: "ok", WindowGen: p.gen.Load(), Factor: breachFactor}
	for _, s := range snaps {
		if s.WinConn.Count < minWindowSamples || s.BaseCon.Count < minWindowSamples {
			continue
		}
		curP99 := s.WinConn.Quantile(0.99)
		baseP99 := s.BaseCon.Quantile(0.99)
		if baseP99 <= 0 || float64(curP99) <= breachFactor*float64(baseP99) {
			continue
		}
		b := Breach{
			Shard:     s.Key.String(),
			Tenant:    s.Key.Tenant,
			Region:    s.Key.Region,
			CurP99US:  us(curP99),
			BaseP99US: us(baseP99),
			Ratio:     float64(curP99) / float64(baseP99),
			CurCount:  s.WinConn.Count,
			BaseCount: s.BaseCon.Count,
		}
		// Attribution: the dominant mutator this window, excluding the
		// victim's own shards, if it cleared the storm floor and dwarfs
		// the victim's own mutation rate.
		var suspect ShardSnap
		for _, o := range snaps {
			if o.Key == s.Key || o.Key.Tenant == s.Key.Tenant {
				continue
			}
			if o.WinMut > suspect.WinMut {
				suspect = o
			}
		}
		links := []string{
			"slo-breach:connect-p99:" + b.Shard,
			fmt.Sprintf("p99=%v baseline=%v ratio=%.2fx", curP99, baseP99, b.Ratio),
		}
		if suspect.WinMut >= minStormOps && suspect.WinMut >= 4*s.WinMut {
			b.Suspect = suspect.Key.String()
			b.SuspectOps = suspect.WinMut
			links = append(links,
				"noisy-neighbor:"+b.Suspect,
				"mutation-storm:ops="+strconv.FormatUint(suspect.WinMut, 10))
		} else {
			links = append(links, "no-dominant-mutator")
		}
		b.Cause = obs.Chain(links...)
		rep.Breaches = append(rep.Breaches, b)
	}
	if len(rep.Breaches) > 0 {
		rep.Status = "degraded"
		p.emitBreaches(rep)
	}
	return rep
}

// emitBreaches fires the OnBreach callback once per (victim shard,
// window generation).
func (p *Plane) emitBreaches(rep HealthReport) {
	p.breachMu.Lock()
	fn := p.onBreach
	var fresh []Breach
	for _, b := range rep.Breaches {
		k := Key{Tenant: b.Tenant, Region: b.Region}
		if p.breachGen[k] == rep.WindowGen && rep.WindowGen != 0 {
			continue
		}
		p.breachGen[k] = rep.WindowGen
		fresh = append(fresh, b)
	}
	p.breachMu.Unlock()
	if fn == nil {
		return
	}
	for _, b := range fresh {
		fn(b.Tenant, fmt.Sprintf("shard=%s p99=%.1fus baseline=%.1fus ratio=%.2fx",
			b.Shard, b.CurP99US, b.BaseP99US, b.Ratio), b.Cause)
	}
}
