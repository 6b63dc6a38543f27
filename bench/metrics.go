package main

// metricDef is one row of the catalogue: BENCHMARK.json carries the same
// names, units, directions and bounds, and the smoke test holds the two
// together.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool    // higher is better
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "slo_ok_share", Unit: "share", Higher: true, Bound: 0.20},
	{Name: "peak_rss_mb", Unit: "MB", Bound: 0.25},
	{Name: "data_dir_mb", Unit: "MB", Bound: 0.10},
}

// reported are the per-layer metrics a tenant would feel directly. Their
// run-to-run spread on a shared machine is wider than the widest bound a
// gated metric may have (see README.md, "Steadiness"), so they carry no
// bound; every untraced run still prints them.
var reported = map[string]bool{
	"declnetd.throughput_ops_s": true, "declnetd.cpu_us_per_op": true, "declnetd.recover_s": true,
	"loadgen.read_p50_ms": true, "loadgen.write_p50_ms": true, "loadgen.read_p99_ms": true, "loadgen.write_p99_ms": true,
}

var perLayer = []metricDef{
	{Name: "core.read_self_us", Unit: "us"},
	{Name: "core.write_self_us", Unit: "us"},
	{Name: "core.batch_op_us", Unit: "us"},
	{Name: "core.permit_lookups_per_read", Unit: "count"},
	{Name: "core.restore_s", Unit: "s"},
	{Name: "core.digest_ms", Unit: "ms"},
	{Name: "permit.check_ns", Unit: "ns"},
	{Name: "permit.set_us", Unit: "us"},
	{Name: "qos.path_hit_ns", Unit: "ns"},
	{Name: "qos.path_miss_us", Unit: "us"},
	{Name: "qos.path_hit_ratio", Unit: "share", Higher: true},
	{Name: "lb.pick_ns", Unit: "ns"},
	{Name: "telemetry.read_self_us", Unit: "us"},
	{Name: "telemetry.write_self_us", Unit: "us"},
	{Name: "intent.record_self_us", Unit: "us"},
	{Name: "intent.append_us", Unit: "us"},
	{Name: "intent.fsync_us", Unit: "us"},
	{Name: "intent.compact_ms", Unit: "ms"},
	{Name: "intent.snapshot_mb", Unit: "MB"},
	{Name: "intent.journal_mb", Unit: "MB"},
	{Name: "intent.journal_bytes_per_record", Unit: "bytes"},
	{Name: "intent.compactions", Unit: "count"},
	{Name: "intent.append_errors", Unit: "count"},
	{Name: "intent.view_us", Unit: "us"},
	{Name: "intent.open_s", Unit: "s"},
	{Name: "reconciler.sweep_ms", Unit: "ms"},
	{Name: "reconciler.scanned_per_sweep", Unit: "count"},
	{Name: "reconciler.sweeps", Unit: "count", Higher: true},
	{Name: "reconciler.repairs", Unit: "count"},
	{Name: "reconciler.drift_total", Unit: "count"},
	{Name: "api.read_self_us", Unit: "us"},
	{Name: "api.write_self_us", Unit: "us"},
	{Name: "api.batch_self_us", Unit: "us"},
	{Name: "api.request_bytes_mean", Unit: "bytes"},
	{Name: "api.response_bytes_mean", Unit: "bytes"},
	{Name: "api.http_errors", Unit: "count"},
	{Name: "declnetd.throughput_ops_s", Unit: "1/s", Higher: true},
	{Name: "declnetd.cpu_us_per_op", Unit: "us"},
	{Name: "declnetd.recover_s", Unit: "s"},
	{Name: "declnetd.read_self_us", Unit: "us"},
	{Name: "declnetd.write_self_us", Unit: "us"},
	{Name: "declnetd.cpu_user_share", Unit: "share", Higher: true},
	{Name: "declnetd.write_syscalls_per_op", Unit: "count"},
	{Name: "declnetd.disk_bytes_per_write", Unit: "bytes"},
	{Name: "loadgen.late_p99_ms", Unit: "ms"},
	{Name: "loadgen.cpu_share", Unit: "share"},
	{Name: "loadgen.closed_mean_us", Unit: "us"},
	{Name: "loadgen.read_p50_ms", Unit: "ms"},
	{Name: "loadgen.write_p50_ms", Unit: "ms"},
	{Name: "loadgen.read_p99_ms", Unit: "ms"},
	{Name: "loadgen.write_p99_ms", Unit: "ms"},
	{Name: "loadgen.read_p999_ms", Unit: "ms"},
	{Name: "loadgen.write_p999_ms", Unit: "ms"},
	{Name: "loadgen.max_ms", Unit: "ms"},
	{Name: "loadgen.batch_p50_ms", Unit: "ms"},
	{Name: "loadgen.error_share", Unit: "share"},
	{Name: "trace.coverage", Unit: "ratio", Higher: true},
}
