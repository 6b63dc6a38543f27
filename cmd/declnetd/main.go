// Command declnetd serves the declarative tenant-networking control plane
// (the paper's Table-2 API) over HTTP/JSON, backed by a simulated
// Figure-1 multi-cloud world.
//
// Usage:
//
//	declnetd -listen :8080 -seed 1 -hosts 4 -log-level info -debug-addr :6060
//
// Endpoints (all JSON):
//
//	POST /v1/eips          {tenant, vm}                       request_eip
//	POST /v1/eips/release  {tenant, eip}
//	POST /v1/sips          {tenant, provider}                 request_sip
//	POST /v1/bind          {tenant, eip, sip, weight}         bind
//	POST /v1/unbind        {tenant, eip, sip}
//	POST /v1/permit        {tenant, target, entries, groups}  set_permit_list
//	POST /v1/qos           {tenant, provider, region, bandwidth_bps}  set_qos
//	POST /v1/potato        {tenant, provider, policy}
//	POST /v1/groups        {tenant, name, members}
//	POST /v1/names         {tenant, name, target}
//	POST /v1/batch         {tenant, ops}      many mutations, one journal frame
//	POST /v1/transfer      {tenant, src, dst, bytes}
//	POST /v1/fail          {kind, target, advance_ms}
//	POST /v1/heal          {kind, target, advance_ms}
//	GET  /v1/probe?tenant=&src=&dst=
//	GET  /v1/explain?tenant=&src=&dst=     replay datapath verdict chain
//	GET  /v1/trace?tenant=&n=&kind=        recent decision trace events
//	POST /v1/slo           {tenant, objective}  declare latency objectives
//	GET  /v1/slo?tenant=                   per-shard latency/SLO report
//	GET  /v1/health                        noisy-neighbor breaches (503 when degraded)
//	GET  /v1/debug/flight?n=               last n retained request spans
//	GET  /v1/metrics                       Prometheus text exposition
//	GET  /v1/status
//	GET  /v1/reconcile                     desired-state convergence counters
//	POST /v1/reconcile/sweep               force one reconciliation sweep
//	POST /v1/snapshot                      compact the durable intent store
//
// A POST body is limited to 1 MiB; a larger one is answered 413. A body
// that does not decode (unknown fields included) or an operand that does
// not parse is a 400; a mutation the control plane refuses is a 409.
//
// With -data-dir set, every accepted mutation is journaled to an
// append-only log before the verb returns (fsync policy via -fsync;
// "interval" syncs every 64 records), a snapshot compacts the journal
// every 4096 records, and on boot the daemon replays snapshot + journal
// tail to recover the pre-crash control-plane state. The -seed and
// -hosts flags must match the world the store was created with; the
// daemon refuses to replay a foreign world's journal. The reconciler
// then keeps the dataplane converged to the declared state: one loop,
// every second, sweeping the targets mutated since the last sweep plus a
// rotating 1/8 anti-entropy slice of the world, so drift nothing
// recorded is found within 8 sweeps.
//
// On SIGINT or SIGTERM the daemon stops accepting, lets in-flight
// requests finish (for at most 10 s), stops the reconciler, fsyncs and
// closes the intent store, and exits 0.
//
// With -debug-addr set, a second listener serves net/http/pprof under
// /debug/pprof/ and Go's own expvar variables (memstats, cmdline) under
// /debug/vars; the metrics registry is rendered only by /v1/metrics on
// the main listener. Mutex and block profiling
// are enabled on that listener too (1 in 100 contention events, blocking
// of 10 µs and longer), so shard-lock contention on the mutation plane is
// inspectable at /debug/pprof/mutex and /debug/pprof/block.
package main

import (
	"context"
	_ "expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"declnet"
	"declnet/internal/api"
	"declnet/internal/core"
	"declnet/internal/intent"
)

// With -data-dir the reconciler sweeps every reconcileInterval, and each
// sweep checks 1/antiEntropyK of the world besides the dirty targets,
// bounding undetected drift to antiEntropyK sweeps.
const (
	reconcileInterval = time.Second
	antiEntropyK      = 8
)

// The journal's "interval" policy fsyncs every fsyncEvery records, and a
// snapshot truncates it every compactEvery.
const (
	fsyncEvery   = 64
	compactEvery = 4096
)

// With -debug-addr: sample 1 in mutexProfileFraction mutex contention
// events and every blocking event of blockProfileRate ns or longer.
const (
	mutexProfileFraction = 100
	blockProfileRate     = 10000
)

// Listener limits. A client gets readHeaderTimeout to send its headers
// and readTimeout for the whole request (bodies are capped at 1 MiB), a
// handler writeTimeout to answer, a keep-alive connection idleTimeout
// between requests, and in-flight requests drainTimeout to finish once a
// shutdown signal has arrived. The debug listener has no write timeout:
// /debug/pprof/profile streams for 30 s by default and longer on request.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 30 * time.Second
	idleTimeout       = 2 * time.Minute
	drainTimeout      = 10 * time.Second
)

func parseLevel(s string) (slog.Level, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", s)
	}
	return lvl, nil
}

func main() {
	listen := flag.String("listen", ":8080", "listen address")
	seed := flag.Int64("seed", 1, "simulation seed")
	hosts := flag.Int("hosts", 4, "hosts per availability zone")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	debugAddr := flag.String("debug-addr", "", "optional address for pprof and expvar debug endpoints")
	dataDir := flag.String("data-dir", "",
		"directory for the durable intent store (empty = in-memory only)")
	fsync := flag.String("fsync", "interval",
		"journal durability: none, always, or interval (fsync every 64 records)")
	flag.Parse()

	lvl, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))

	world, err := declnet.NewFig1World(*seed, *hosts)
	if err != nil {
		logger.Error("building world", "err", err)
		os.Exit(1)
	}

	var store *intent.Log
	if *dataDir != "" {
		policy, err := intent.ParseSyncPolicy(*fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		store, err = intent.Open(*dataDir, intent.Options{
			Sync:         policy,
			SyncEvery:    fsyncEvery,
			CompactEvery: compactEvery,
			Meta: map[string]string{
				"seed":  strconv.FormatInt(*seed, 10),
				"hosts": strconv.Itoa(*hosts),
			},
		})
		if err != nil {
			logger.Error("opening intent store", "dir", *dataDir, "err", err)
			os.Exit(1)
		}
		// Refuse to replay a journal recorded against a different world:
		// replay assumes the same topology and allocation order.
		meta := store.Meta()
		if meta["seed"] != strconv.FormatInt(*seed, 10) || meta["hosts"] != strconv.Itoa(*hosts) {
			logger.Error("intent store belongs to a different world",
				"dir", *dataDir,
				"store_seed", meta["seed"], "store_hosts", meta["hosts"],
				"flag_seed", *seed, "flag_hosts", *hosts)
			os.Exit(1)
		}
		if store.Seq() > 0 {
			if err := world.RestoreIntent(store.State()); err != nil {
				logger.Error("replaying intent store", "dir", *dataDir, "err", err)
				os.Exit(1)
			}
			logger.Info("recovered control-plane state from intent store",
				"dir", *dataDir, "seq", store.Seq(), "replayed", store.Stats().ReplayedRecords)
		}
		world.EnableIntent(store)
	}

	srv := api.NewServerWith(world, api.Options{Logger: logger})

	if store != nil {
		world.EnableReconciler(core.ReconcilerConfig{
			Interval:     reconcileInterval,
			AntiEntropyK: antiEntropyK,
		})
		world.Reconciler().Start()
		logger.Info("reconciler running", "interval", reconcileInterval, "anti_entropy_k", antiEntropyK)
	}

	if *debugAddr != "" {
		// Lock-contention profiles cover the shard locks the mutation
		// plane serializes behind; both are off by default in the runtime
		// and cheap at these sampling rates.
		runtime.SetMutexProfileFraction(mutexProfileFraction)
		runtime.SetBlockProfileRate(blockProfileRate)
		// pprof and expvar registered themselves on DefaultServeMux via
		// import.
		debug := &http.Server{Addr: *debugAddr, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr,
				"pprof", "/debug/pprof/", "expvar", "/debug/vars")
			if err := debug.ListenAndServe(); err != nil {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}

	logger.Info("declnetd: Table-2 control plane up",
		"listen", *listen,
		"providers", fmt.Sprintf("%s, %s, onprem", world.Fig1.CloudA, world.Fig1.CloudB),
		"seed", *seed, "hosts_per_zone", *hosts, "log_level", lvl.String())
	// Registered before the listener is up, so a signal that arrives
	// early is still answered with an orderly exit.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	tenants := &http.Server{
		Addr:              *listen,
		Handler:           srv,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	failed := make(chan error, 1)
	go func() { failed <- tenants.ListenAndServe() }()
	select {
	case err := <-failed:
		logger.Error("listener failed", "err", err)
		os.Exit(1)
	case sig := <-sigs:
		logger.Info("shutting down", "signal", sig.String())
	}

	// Stop accepting and drain, then quiesce the only other writer (the
	// reconciler), then make the journal durable.
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := tenants.Shutdown(ctx); err != nil {
		logger.Warn("requests still in flight after the drain window", "window", drainTimeout, "err", err)
	}
	if store != nil {
		world.Reconciler().Stop()
		if err := store.Close(); err != nil {
			logger.Error("closing intent store", "dir", *dataDir, "err", err)
			os.Exit(1)
		}
	}
}
