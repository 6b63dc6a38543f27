package exp

import (
	"strings"
	"testing"

	"declnet/internal/scale"
)

// e13TestConfig is a tiny drill tier so the shape test stays cheap and
// never mutates the registry's e13Tier (the golden test runs that
// concurrently).
func e13TestConfig() scale.Config {
	cfg := scale.SmokeConfig()
	cfg.EIPs = 2_000
	cfg.Tenants = 20
	cfg.Regions = 4
	cfg.Probes = 1_000
	cfg.ChurnEvents = 200
	cfg.PermitSamples = 20
	cfg.StormOps = 500
	return cfg
}

// TestE13Shape checks the drill table's structure without pinning any
// timing value: counters must echo the config and every timing cell must
// carry a maskable suffix. The storm/idle ratio and its gate cell are
// reported, masked measurements; isolation itself is gated structurally
// by core's TestShardLockIsolation.
func TestE13Shape(t *testing.T) {
	cfg := e13TestConfig()
	tbl, err := E13ScaleDrill(cfg)
	if err != nil {
		t.Fatal(err)
	}
	text := tbl.Text()
	for _, want := range []string{
		"endpoints onboarded",
		"2000", // all EIPs onboarded
		"20 / 4",
		"(tenant, region) shards materialized",
		"permit propagation lag p50 / p99",
		"connect latency p50 / p99",
		"provider state per endpoint",
		"storm/idle p99 ratio",
		"storm isolation gate",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("table missing %q:\n%s", want, text)
		}
	}
	// Every timing value must be masked by the golden normalizer — after
	// masking, no floating-point digits may survive (the deterministic
	// counters are all integers).
	masked := normalize("E13", text)
	if strings.Contains(text, "us") && !strings.Contains(masked, "<wall-clock>") {
		t.Errorf("normalize(E13) masked nothing:\n%s", masked)
	}
	for _, suffix := range []string{"us", "ms"} {
		if i := strings.Index(masked, "."); i >= 0 && strings.Contains(masked[i:i+4], suffix) {
			t.Errorf("unmasked wall-clock cell survives normalization near %q", masked[i:i+8])
		}
	}
}

// TestE13Deterministic runs the drill twice and requires the masked
// tables to be byte-identical: the counters (onboarded, shards, churn,
// probes, denials) must be pure functions of config and seed even though
// the drill itself is heavily concurrent.
func TestE13Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the drill twice")
	}
	cfg := e13TestConfig()
	first, err := E13ScaleDrill(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := E13ScaleDrill(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := normalize("E13", first.Text()), normalize("E13", second.Text())
	if a != b {
		t.Fatalf("E13 counters not deterministic across runs:\n%s", diffLines(a, b))
	}
}
