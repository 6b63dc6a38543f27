// Package scale is the million-endpoint drill: a synthetic-scale load
// harness that drives 10^5–10^6 endpoint IPs across hundreds of tenants
// through the real core control-plane API (no HTTP, no simulation
// shortcuts), under Poisson endpoint churn and Zipf-skewed connect
// fan-out — the §6 scalability question ("how will the control plane
// keep up with millions of endpoints?") asked of this codebase instead
// of about it.
//
// The harness measures what a tenant would feel: connect (probe) latency
// quantiles, permit-update propagation lag, onboarding throughput, and
// provider state per endpoint — and what the sharded control plane
// promises: that a mutation storm confined to one (tenant, region) shard
// leaves every other shard's latency envelope intact. Experiment E13
// (internal/exp) renders the drill as a golden table.
package scale

import "fmt"

// Config parameterizes one drill. The zero value is not runnable; use
// DefaultConfig or SmokeConfig, then Validate.
type Config struct {
	// EIPs is the total endpoint count onboarded across all tenants.
	EIPs int
	// Tenants is the tenant count; tenant i homes in region i % Regions.
	Tenants int
	// Regions is the provider's region count (each carved one /16, so
	// at most 256 and at most ~60k EIPs per region).
	Regions int
	// Zones and HostsPerZone shape each region's fabric; endpoints pack
	// many-per-host (kubemark-style), so the graph stays small while the
	// address space is huge.
	Zones        int
	HostsPerZone int
	// Probes is the connect fan-out sample count; destinations are drawn
	// Zipf(skew) over each tenant's endpoints, so a few are hot.
	Probes int
	// ZipfSkew is the fan-out skew parameter (> 1).
	ZipfSkew float64
	// ChurnEvents caps the Poisson launch/teardown trace length.
	ChurnEvents int
	// PermitSamples is how many permit-propagation lag measurements the
	// sampler takes while churn runs.
	PermitSamples int
	// StormOps is the per-rep mutation count in the storm-isolation
	// phase (both the real storm and the CPU-fairness baseline).
	StormOps int
	// Workers is the harness's client-side concurrency.
	Workers int
	// Seed feeds every generator in the drill.
	Seed int64
}

// DefaultConfig is the E13 tier: a 10^5-EIP, 200-tenant drill.
func DefaultConfig() Config {
	return Config{
		EIPs:          100_000,
		Tenants:       200,
		Regions:       16,
		Zones:         4,
		HostsPerZone:  8,
		Probes:        20_000,
		ZipfSkew:      1.2,
		ChurnEvents:   2_000,
		PermitSamples: 200,
		StormOps:      4_000,
		Workers:       8,
		Seed:          42,
	}
}

// SmokeConfig is the CI tier: a 10^4-EIP drill that finishes in seconds.
func SmokeConfig() Config {
	cfg := DefaultConfig()
	cfg.EIPs = 10_000
	cfg.Tenants = 50
	cfg.Regions = 8
	cfg.Probes = 4_000
	cfg.ChurnEvents = 500
	cfg.PermitSamples = 50
	cfg.StormOps = 1_000
	return cfg
}

// perRegionCap is the usable host addresses in one region /16 (the pool
// reserves network/broadcast-style edges).
const perRegionCap = 65_000

// Validate bounds-checks a config against what the harness and the /8
// address carving can actually hold.
func (c Config) Validate() error {
	switch {
	case c.EIPs < 1:
		return fmt.Errorf("scale: eips must be >= 1, got %d", c.EIPs)
	case c.Tenants < 1:
		return fmt.Errorf("scale: tenants must be >= 1, got %d", c.Tenants)
	case c.Regions < 1 || c.Regions > 255:
		return fmt.Errorf("scale: regions must be in [1,255], got %d", c.Regions)
	case c.Zones < 1 || c.Zones > 64:
		return fmt.Errorf("scale: zones must be in [1,64], got %d", c.Zones)
	case c.HostsPerZone < 1 || c.HostsPerZone > 1024:
		return fmt.Errorf("scale: hosts_per_zone must be in [1,1024], got %d", c.HostsPerZone)
	case c.Probes < 0:
		return fmt.Errorf("scale: probes must be >= 0, got %d", c.Probes)
	case c.ZipfSkew <= 1:
		return fmt.Errorf("scale: zipf_skew must be > 1, got %g", c.ZipfSkew)
	case c.ChurnEvents < 0:
		return fmt.Errorf("scale: churn_events must be >= 0, got %d", c.ChurnEvents)
	case c.PermitSamples < 0:
		return fmt.Errorf("scale: permit_samples must be >= 0, got %d", c.PermitSamples)
	case c.StormOps < 1:
		return fmt.Errorf("scale: storm_ops must be >= 1, got %d", c.StormOps)
	case c.Workers < 1 || c.Workers > 256:
		return fmt.Errorf("scale: workers must be in [1,256], got %d", c.Workers)
	}
	// Tenants home one region each; a region's share of EIPs (plus churn
	// headroom) must fit its /16.
	tenantsPerRegion := (c.Tenants + c.Regions - 1) / c.Regions
	perTenant := (c.EIPs + c.Tenants - 1) / c.Tenants
	need := tenantsPerRegion*perTenant + c.ChurnEvents
	if need > perRegionCap {
		return fmt.Errorf("scale: %d EIPs per region (plus churn) exceeds the /16 capacity %d — add regions",
			need, perRegionCap)
	}
	if c.Tenants > c.EIPs {
		return fmt.Errorf("scale: more tenants (%d) than EIPs (%d)", c.Tenants, c.EIPs)
	}
	return nil
}
