GO ?= go
FUZZTIME ?= 10s
# Full-tier drill size for `make scale`; 400 tenants keep each region's
# share of a million EIPs inside its /16.
SCALE_EIPS ?= 1000000
SCALE_TENANTS ?= 400

.PHONY: build fmt test vet race bench benchsmoke scale recover-scale soak staticcheck check fuzz fuzz-store loc flags benchmod nobaseline onejson onepath addrmaps onestate onecheck oneplane

build:
	$(GO) build ./...

# Fails when gofmt would change any file (bench/ included; the benchmark's
# scratch directory is not ours to format).
fmt:
	@out="$$(gofmt -l . | grep -v '^\.bench_build/' || true)"; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The whole tree under the race detector: the one race pass, which
# `make check` and CI share. A package list would drift from where the
# concurrent tests live.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# One-iteration solver benchmark: catches benchmarks that no longer
# compile or crash without paying for a real measurement run.
benchsmoke:
	$(GO) test -run '^$$' -bench MaxMinReshare -benchtime 1x .

# The full-tier scale drill: E13 at 10^6 EIPs, printed as its table.
scale:
	$(GO) run ./cmd/expdriver -run E13 -scale-eips $(SCALE_EIPS) -scale-tenants $(SCALE_TENANTS)

# Restart recovery and the deployed live heap at the full 10^6-EIP tier
# (CI runs it). The tests assert the same per-endpoint allocation and
# live-heap budgets as at the 10^5 tier and log the seconds and bytes.
recover-scale:
	DECLNET_RECOVER_EIPS=$(SCALE_EIPS) DECLNET_RECOVER_TENANTS=$(SCALE_TENANTS) \
		$(GO) test -run 'TestRecoveryBudget|TestLiveBudget' -v -timeout 60m ./internal/scale/

# Static analysis beyond vet. The tool is optional locally (CI installs
# it); skip quietly when absent rather than failing the whole check.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Short fuzz pass over the wire-format parsers and the intent store's
# binary codec: journal frames and snapshots each round-trip (encode),
# and any bytes decode to records or a state, or an error, in memory the
# input's size bounds (decode); the mutation body decoder agrees with
# encoding/json on every /v1/batch body and every single-verb route's;
# addr.Table agrees with a plain map on any sequence of Put, Delete, Get
# and Keys (FuzzTableOps); the decision trace's packed rings agree with
# a plain per-tenant slice of events on any sequence of Record and Drop
# (FuzzTraceRing). Each target gets $(FUZZTIME);
# regression corpus lives under testdata/fuzz/ so plain `go test`
# replays past findings even without this target.
fuzz: fuzz-store
	$(GO) test -run '^$$' -fuzz '^FuzzParseIP$$' -fuzztime $(FUZZTIME) ./internal/addr/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePrefix$$' -fuzztime $(FUZZTIME) ./internal/addr/
	$(GO) test -run '^$$' -fuzz '^FuzzTableOps$$' -fuzztime $(FUZZTIME) ./internal/addr/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePermitEntry$$' -fuzztime $(FUZZTIME) ./internal/api/
	$(GO) test -run '^$$' -fuzz '^FuzzBatchDecode$$' -fuzztime $(FUZZTIME) ./internal/api/
	$(GO) test -run '^$$' -fuzz '^FuzzRouteDecode$$' -fuzztime $(FUZZTIME) ./internal/api/
	$(GO) test -run '^$$' -fuzz '^FuzzParseObjective$$' -fuzztime $(FUZZTIME) ./internal/slo/
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRing$$' -fuzztime $(FUZZTIME) ./internal/obs/

# The intent store's codecs, which decide what a restart recovers: the
# snapshot decoder and encoder, the journal decoder, and the journal
# encoder over whole files (every prefix of one included), $(FUZZTIME)
# (10 s by default) each. CI runs it on every change; `make fuzz` runs it
# first.
fuzz-store:
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime $(FUZZTIME) ./internal/intent/
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotEncode$$' -fuzztime $(FUZZTIME) ./internal/intent/
	$(GO) test -run '^$$' -fuzz '^FuzzJournalDecode$$' -fuzztime $(FUZZTIME) ./internal/intent/
	$(GO) test -run '^$$' -fuzz '^FuzzJournalFrame$$' -fuzztime $(FUZZTIME) ./internal/intent/

# The E15 chaos soak at full length: hours of virtual time of
# fault/heal and churn with repeated mid-stream crash/restart cycles,
# each recovery checked byte-for-byte against an uncrashed oracle.
# DECLNET_SOAK_ROUNDS scales the run; the default golden (E15) uses the
# short deterministic tier.
soak:
	DECLNET_SOAK_ROUNDS=48 $(GO) test -run TestChaosSoakFull -timeout 60m -v ./internal/exp/

# Non-test, non-blank, non-comment Go lines per package of this module
# (bench/ is a module of its own): the roadmap's tracking metric for
# "deleted code counted as progress". A line that is only a comment, or
# inside a /* */ block, does not count.
loc:
	@deps="$$($(GO) list -deps ./cmd/declnetd | sed -n 's|^declnet/||p' | tr '\n' ' ')"; \
	find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | sort | xargs awk -v deps="$$deps" '\
		FNR == 1 { inblock = 0; pkg = FILENAME; sub(/\/[^\/]*$$/, "", pkg); sub(/^\.\/?/, "", pkg); if (pkg == "") pkg = "(root)" } \
		{ line = $$0; sub(/^[ \t]+/, "", line) } \
		inblock { if (index(line, "*/")) inblock = 0; next } \
		line == "" || line ~ /^\/\// { next } \
		line ~ /^\/\*/ { if (!index(line, "*/")) inblock = 1; next } \
		{ n[pkg]++; total++ } \
		END { for (p in n) printf "%-24s %6d\n", p, n[p] | "sort"; close("sort"); \
			split(deps, d, " "); for (i in d) linked += n[d[i]]; \
			printf "%-24s %6d\n", "daemon-linked", linked; printf "%-24s %6d\n", "total", total }'

# The number of flags `declnetd -h` lists: the roadmap's tracking metric
# for "flags expected to go down".
flags:
	@$(GO) run ./cmd/declnetd -h 2>&1 | grep -c '^  -'

# bench/ is a separate module that compiles against internal/api,
# internal/core, internal/intent and declnet.Tenant, so the root
# `go build ./... && go test ./...` never sees it; its smoke test
# (~20 s: builds declnetd, drives all four workloads briefly) is what
# catches a refactor breaking the surface BENCHMARK.json runs on.
benchmod:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# declnetd must stay free of the baseline (VPC/gateway/appliance) world
# and of its routing tables: the declarative plane holds none. Nor does it
# link the simulator (engine, flow network, fault injector), the simulated
# plane over it (simplane: connections, quota limiters, the fault monitor)
# or the root package's World: its cloud programs no data plane, so no
# request path can run an engine, start a flow or inject a fault.
nobaseline:
	@if $(GO) list -deps ./cmd/declnetd | grep -E 'internal/(vnet|gateway|appliance|cloudapi|shim|routing|sim|netsim|fault|simplane)$$|^declnet$$'; then \
		echo "cmd/declnetd depends on the baseline world or the simulator (packages above)"; exit 1; \
	fi

# The intent store reads and writes its binary formats only: no non-test
# file of internal/intent imports encoding/json (its tests render states
# with it to compare them).
onejson:
	@if grep -l '"encoding/json"' $$(ls internal/intent/*.go | grep -v '_test\.go$$'); then \
		echo "the files above import encoding/json; the intent store has no JSON format"; exit 1; \
	fi

# One mutation path: internal/core journals a mutation from one call
# site (Cloud.apply's rec.Record), and internal/api applies every
# mutation route through core.ApplyBatch, with no Cloud.Apply call and
# no per-route generic handler.
onepath:
	@n=$$(cat $$(ls internal/core/*.go | grep -v '_test\.go$$') | grep -o 'rec\.Record(' | wc -l); \
	if [ "$$n" -ne 1 ]; then echo "internal/core calls rec.Record( $$n times; the one call is Cloud.apply's"; exit 1; fi
	@if grep -n 'Cloud\.Apply(\|mutate\[' $$(ls internal/api/*.go | grep -v '_test\.go$$'); then \
		echo "internal/api applies mutations through core.ApplyBatch alone"; exit 1; fi

# The declared state indexes its address-keyed sections by address
# (addr.Table, walked in address order), never in a hash map: no non-test
# file of internal/intent declares a map keyed by addr.IP.
addrmaps:
	@if grep -n 'map\[addr\.IP\]' $$(ls internal/intent/*.go | grep -v '_test\.go$$'); then \
		echo "the lines above key a map by addr.IP; intent.State indexes addresses with addr.Table"; exit 1; \
	fi

# One declared state: intent.State is the only copy of what a tenant
# declared and the only address allocator, so no non-test file of
# internal/core declares a group or name map (keyed by string, holding
# addresses), the lock that once guarded them, an address table of
# endpoint records of its own, an address pool (addr.HostPool) that
# would be a second cursor beside the declared one, or a permit set of its
# own making (frameSets, addr.NewPrefixSet, addr.AdoptPrefixSet): every
# declared set comes from the state, which holds one per distinct list.
onestate:
	@if grep -nE 'nmMu|map\[string\](map\[string\])?(\[\])?(addr\.IP|EIP|SIP)\b|addr\.Table\[\*intent\.Endpoint\]|addr\.(New)?HostPool|frameSets|addr\.(New|Adopt)PrefixSet' \
		$$(ls internal/core/*.go | grep -v '_test\.go$$'); then \
		echo "the lines above keep declared state in core; it lives in intent.State alone"; exit 1; \
	fi

# One check site: the rules a journaled op is held to are
# intent.State.check's, which a live frame (intent.Frame.Check) and
# journal replay (State.Apply) both run, so core's verb table checks no
# ownership and no rate of its own. Cloud.owned and Cloud.ownsTarget stay
# for connect, probe, explain and the reconciler, so the first grep reads
# apply.go alone. No non-test file of internal/intent reads a DNETJNL2
# journal (journalV2Magic, decoder.inline): Open refuses one.
onecheck:
	@if grep -nE 'c\.(owned|ownedSIP|ownsTarget)\(|checkRate\(' internal/core/apply.go; then \
		echo "internal/core/apply.go checks what intent.State.check checks, the one check site"; exit 1; \
	fi
	@if grep -nE 'journalV2Magic|\.inline\b' $$(ls internal/intent/*.go | grep -v '_test\.go$$'); then \
		echo "the lines above read a DNETJNL2 journal, which Open refuses"; exit 1; \
	fi

# One plane in core: core holds the control plane declnetd serves, and
# everything that only traffic needs — connections and their flows, the
# regional quota limiters, the fault monitor, billing — lives in the
# simulated plane (internal/simplane), so no non-test file of
# internal/core names a flow start, a limiter, the monitor or the biller.
oneplane:
	@if grep -nE 'StartFlow|qos\.Enforcer|DistributedLimiter|Biller|FaultMonitor|EnableFaults|ConnectOpts' \
		$$(ls internal/core/*.go | grep -v '_test\.go$$'); then \
		echo "the lines above carry the simulated plane in core; it lives in internal/simplane"; exit 1; \
	fi

# Tier-1 verification plus gofmt, vet, static analysis, the race pass,
# the benchmark smoke tests, the declnetd dependency pin (no baseline
# world, no simulator), the intent store's freedom from JSON and from
# address-keyed maps, the one mutation path, one declared state, one
# check site and one plane in core.
check: build fmt vet staticcheck test race benchsmoke benchmod nobaseline onejson onepath addrmaps onestate onecheck oneplane
