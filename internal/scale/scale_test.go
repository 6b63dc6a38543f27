package scale

import (
	"strings"
	"testing"
	"time"
)

// TestSmokeDrill runs the CI tier end to end: a 10^4-EIP drill must
// onboard everything, replay churn, and measure real latencies and the
// storm/idle ratio. The ratio is scheduler-noisy, so it is reported, not
// gated; isolation is gated structurally by core's
// TestShardLockIsolation.
func TestSmokeDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke drill takes a few seconds")
	}
	cfg := SmokeConfig()
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Onboarded != cfg.EIPs {
		t.Errorf("onboarded %d of %d EIPs", m.Onboarded, cfg.EIPs)
	}
	if m.Shards < cfg.Tenants {
		t.Errorf("expected >= %d (tenant, region) shards, got %d", cfg.Tenants, m.Shards)
	}
	if m.ChurnEvents == 0 {
		t.Error("churn trace was empty")
	}
	if m.Probes == 0 || m.ConnectP99 == 0 {
		t.Errorf("fan-out collected %d probes, p99 %v", m.Probes, m.ConnectP99)
	}
	if m.ConnectP50 > m.ConnectP99 {
		t.Errorf("p50 %v > p99 %v", m.ConnectP50, m.ConnectP99)
	}
	if m.PermitLagP99 == 0 {
		t.Error("permit-lag sampler collected nothing")
	}
	if m.BytesPerEP <= 0 {
		t.Errorf("bytes/endpoint not measured: %g", m.BytesPerEP)
	}
	if m.StormIdleRatio <= 0 {
		t.Errorf("storm isolation not measured: ratio %g", m.StormIdleRatio)
	}
	if m.OnboardWall > 2*time.Minute {
		t.Errorf("onboard took %v — control plane fell over", m.OnboardWall)
	}
}

func TestValidateRejectsOverfullRegion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Regions = 1
	cfg.Tenants = 1
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("expected /16 capacity error, got %v", err)
	}
}
