GO ?= go
FUZZTIME ?= 10s
# Full-tier drill size for `make scale`; 400 tenants keep each region's
# share of a million EIPs inside its /16.
SCALE_EIPS ?= 1000000
SCALE_TENANTS ?= 400

.PHONY: build fmt test vet race bench benchsmoke scale recover-scale soak staticcheck check fuzz loc flags benchmod nobaseline

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

# Restart recovery at the full 10^6-EIP tier: journal decode and surface
# restore fan out across GOMAXPROCS workers, so this is the tier where
# parallel recovery earns its keep. The test asserts the same
# per-endpoint allocation budget as at the 10^5 tier and logs the seconds.
recover-scale:
	DECLNET_RECOVER_EIPS=$(SCALE_EIPS) DECLNET_RECOVER_TENANTS=$(SCALE_TENANTS) \
		$(GO) test -run TestRecoveryBudget -v -timeout 60m ./internal/scale/

# Static analysis beyond vet. The tool is optional locally (CI installs
# it); skip quietly when absent rather than failing the whole check.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Short fuzz pass over the wire-format parsers and the snapshot codec
# (encode: a round trip; decode: any bytes give a state or an error, in
# memory the input's size bounds). Each target gets $(FUZZTIME);
# regression corpus lives under testdata/fuzz/ so plain `go test`
# replays past findings even without this target.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseIP$$' -fuzztime $(FUZZTIME) ./internal/addr/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePrefix$$' -fuzztime $(FUZZTIME) ./internal/addr/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePermitEntry$$' -fuzztime $(FUZZTIME) ./internal/api/
	$(GO) test -run '^$$' -fuzz '^FuzzParseObjective$$' -fuzztime $(FUZZTIME) ./internal/slo/
	$(GO) test -run '^$$' -fuzz '^FuzzJournalDecode$$' -fuzztime $(FUZZTIME) ./internal/intent/
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotEncode$$' -fuzztime $(FUZZTIME) ./internal/intent/
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime $(FUZZTIME) ./internal/intent/

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
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | sort | xargs awk '\
		FNR == 1 { inblock = 0; pkg = FILENAME; sub(/\/[^\/]*$$/, "", pkg); sub(/^\.\/?/, "", pkg); if (pkg == "") pkg = "(root)" } \
		{ line = $$0; sub(/^[ \t]+/, "", line) } \
		inblock { if (index(line, "*/")) inblock = 0; next } \
		line == "" || line ~ /^\/\// { next } \
		line ~ /^\/\*/ { if (!index(line, "*/")) inblock = 1; next } \
		{ n[pkg]++; total++ } \
		END { for (p in n) printf "%-24s %6d\n", p, n[p] | "sort"; close("sort"); printf "%-24s %6d\n", "total", total }'

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
# and of its routing tables: the declarative plane holds none.
nobaseline:
	@if $(GO) list -deps ./cmd/declnetd | grep -E 'internal/(vnet|gateway|appliance|cloudapi|shim|routing)$$'; then \
		echo "cmd/declnetd depends on the baseline world (packages above)"; exit 1; \
	fi

# Tier-1 verification plus gofmt, vet, static analysis, the race pass,
# the benchmark smoke tests, and the declnetd dependency pin.
check: build fmt vet staticcheck test race benchsmoke benchmod nobaseline
