// Package meter measures tenant consumption of the declarative API's
// resources — endpoint-hours, service-hours, reserved and best-effort
// bytes, quota-hours — and prices it against provider tiers. The paper
// argues the declarative interface still lets providers "differentiate
// through rich performance, availability, and security tiers" (§1); this
// package is that billing surface, and it doubles as the accounting the
// E-series experiments use for cost-shape comparisons.
//
// All clocks are virtual (a time.Duration since the start of the run);
// integration is exact under piecewise-constant usage because every state
// change passes through a record method.
package meter

import (
	"fmt"
	"sort"
	"time"

	"declnet/internal/metrics"
)

// Usage is one tenant's accumulated consumption.
type Usage struct {
	// EIPSeconds and SIPSeconds integrate address holdings over time.
	EIPSeconds float64
	SIPSeconds float64
	// ReservedBytes and BestEffortBytes split transferred volume by the
	// §4-footnote traffic class.
	ReservedBytes   float64
	BestEffortBytes float64
	// QuotaGbpsSeconds integrates reserved regional bandwidth over time
	// (1 Gbps held for 1s = 1 unit).
	QuotaGbpsSeconds float64
	// PermitUpdates counts control-plane writes.
	PermitUpdates uint64

	activeEIPs int
	activeSIPs int
	quotaGbps  float64
	lastAt     time.Duration
}

func (u *Usage) integrate(now time.Duration) {
	dt := (now - u.lastAt).Seconds()
	if dt > 0 {
		u.EIPSeconds += float64(u.activeEIPs) * dt
		u.SIPSeconds += float64(u.activeSIPs) * dt
		u.QuotaGbpsSeconds += u.quotaGbps * dt
	}
	u.lastAt = now
}

// Meter tracks usage per tenant. The zero value is not ready; call New.
type Meter struct {
	usage map[string]*Usage
}

// New returns an empty meter.
func New() *Meter {
	return &Meter{usage: make(map[string]*Usage)}
}

func (m *Meter) of(tenant string, now time.Duration) *Usage {
	u, ok := m.usage[tenant]
	if !ok {
		u = &Usage{lastAt: now}
		m.usage[tenant] = u
	}
	u.integrate(now)
	return u
}

// GrantEIP records an endpoint grant at virtual time now.
func (m *Meter) GrantEIP(tenant string, now time.Duration) {
	m.of(tenant, now).activeEIPs++
}

// ReleaseEIP records an endpoint release.
func (m *Meter) ReleaseEIP(tenant string, now time.Duration) {
	u := m.of(tenant, now)
	if u.activeEIPs > 0 {
		u.activeEIPs--
	}
}

// GrantSIP and ReleaseSIP mirror the service-address lifecycle.
func (m *Meter) GrantSIP(tenant string, now time.Duration) {
	m.of(tenant, now).activeSIPs++
}

// ReleaseSIP records a service-address release.
func (m *Meter) ReleaseSIP(tenant string, now time.Duration) {
	u := m.of(tenant, now)
	if u.activeSIPs > 0 {
		u.activeSIPs--
	}
}

// SetQuota records a regional reservation change (bps; all the tenant's
// regions summed by the caller or recorded per provider).
func (m *Meter) SetQuota(tenant string, now time.Duration, totalBps float64) {
	m.of(tenant, now).quotaGbps = totalBps / 1e9
}

// AddBytes records transferred volume by class.
func (m *Meter) AddBytes(tenant string, now time.Duration, bytes float64, reserved bool) {
	u := m.of(tenant, now)
	if reserved {
		u.ReservedBytes += bytes
	} else {
		u.BestEffortBytes += bytes
	}
}

// PermitUpdate records one control-plane write.
func (m *Meter) PermitUpdate(tenant string, now time.Duration) {
	m.of(tenant, now).PermitUpdates++
}

// Snapshot returns the tenant's usage integrated up to now.
func (m *Meter) Snapshot(tenant string, now time.Duration) Usage {
	u := m.of(tenant, now)
	return *u
}

// Tenants returns the metered tenant names, sorted.
func (m *Meter) Tenants() []string {
	out := make([]string, 0, len(m.usage))
	for t := range m.usage {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Rate is a provider tier's price card.
type Rate struct {
	Name string
	// Per-hour prices.
	EIPHour       float64
	SIPHour       float64
	QuotaGbpsHour float64
	// Per-GB prices by class.
	ReservedGB   float64
	BestEffortGB float64
	// Per-1k control-plane writes.
	PermitPer1k float64
}

// StandardTier and PremiumTier are illustrative price cards: premium buys
// cheaper reserved bandwidth (cold-potato-class transport) at higher
// fixed address costs — the differentiation §1 anticipates.
func StandardTier() Rate {
	return Rate{Name: "standard", EIPHour: 0.005, SIPHour: 0.025,
		QuotaGbpsHour: 0.50, ReservedGB: 0.08, BestEffortGB: 0.02, PermitPer1k: 0.10}
}

// PremiumTier trades higher fixed costs for cheaper guaranteed transport.
func PremiumTier() Rate {
	return Rate{Name: "premium", EIPHour: 0.02, SIPHour: 0.10,
		QuotaGbpsHour: 0.35, ReservedGB: 0.05, BestEffortGB: 0.02, PermitPer1k: 0.10}
}

// Invoice prices a usage snapshot against a rate card.
type Invoice struct {
	Tenant string
	Rate   Rate
	Lines  []InvoiceLine
	Total  float64
}

// InvoiceLine is one priced usage dimension.
type InvoiceLine struct {
	Item     string
	Quantity float64
	Unit     string
	Amount   float64
}

// Price builds an invoice from a usage snapshot.
func Price(tenant string, u Usage, rate Rate) Invoice {
	inv := Invoice{Tenant: tenant, Rate: rate}
	add := func(item string, qty float64, unit string, price float64) {
		amount := qty * price
		inv.Lines = append(inv.Lines, InvoiceLine{Item: item, Quantity: qty, Unit: unit, Amount: amount})
		inv.Total += amount
	}
	add("endpoint IPs", u.EIPSeconds/3600, "eip-hours", rate.EIPHour)
	add("service IPs", u.SIPSeconds/3600, "sip-hours", rate.SIPHour)
	add("egress guarantee", u.QuotaGbpsSeconds/3600, "gbps-hours", rate.QuotaGbpsHour)
	add("reserved transfer", u.ReservedBytes/1e9, "GB", rate.ReservedGB)
	add("best-effort transfer", u.BestEffortBytes/1e9, "GB", rate.BestEffortGB)
	add("permit updates", float64(u.PermitUpdates)/1000, "k-writes", rate.PermitPer1k)
	return inv
}

// Table renders the invoice as an experiment table.
func (inv Invoice) Table() *metrics.Table {
	t := &metrics.Table{
		Title:   fmt.Sprintf("invoice: %s (%s tier)", inv.Tenant, inv.Rate.Name),
		Columns: []string{"item", "quantity", "unit", "amount $"},
	}
	for _, l := range inv.Lines {
		t.AddRow(l.Item, l.Quantity, l.Unit, l.Amount)
	}
	t.AddRow("TOTAL", "", "", inv.Total)
	return t
}
