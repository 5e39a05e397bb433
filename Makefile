# Build / verification entry points. `make verify` is the full gate the
# suite-robustness work relies on: tier-1 build+test, vet, and a race pass
# over the worker-pool packages.

GO ?= go

.PHONY: build test test-short vet fmt-check race verify golden bench bench-check smoke smoke-fleet smoke-ha smoke-overload fuzz sim-cluster sim-cluster-deep

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# Fails, listing the files, when any Go file is not gofmt-formatted.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The experiment runner, pool, validate checkup, slipd server, journal
# store, fleet coordinator, the sim engine's pooled context workers, and
# the omp task deques (concurrent steals under injected stragglers) fan
# work out across goroutines; keep them race-clean. -short skips only
# the paper-scale shape tests (simulation numbers, no extra
# concurrency), so every racy path is still exercised and the
# instrumented run stays within the go test timeout. CI runs this
# target, so the package list lives only here.
race:
	$(GO) test -race -short ./internal/sim/... ./internal/experiments/... ./internal/pool/... ./internal/validate/... ./internal/server/... ./internal/store/... ./internal/cluster/... ./internal/omp/...

verify: build test vet race

# Golden gate: one file per slipd job kind under $(GOLDEN), the bytes of
# that kind's test-scale study. TestGolden (internal/server, part of `go
# test ./...`) checks slipd's execute against them; this target checks
# that the CLIs print the same bytes: the five sweep studies at -jobs 1
# and 8, slipsim's Figures 2-3 (static) and 4-5 (dynamic), and one
# slipsim run minus the result norm/protocol lines slipd omits. A change
# that moves any of these bytes regenerates the goldens (go test
# ./internal/server -run TestGolden -update) and bumps CacheKeyVersion
# in internal/server/spec.go in the same PR, so stale cached results stop
# matching.
GOLDEN := internal/server/testdata/golden
golden:
	mkdir -p bin
	$(GO) build -o bin/slipsim ./cmd/slipsim
	$(GO) build -o bin/sweep ./cmd/sweep
	@set -e; for j in 1 8; do \
		echo "sweep studies at -jobs $$j"; \
		bin/sweep -study scaling -kernel CG -nodes 2,4 -scale test -jobs $$j -q | cmp - $(GOLDEN)/scaling.txt; \
		bin/sweep -study tokens -kernel MG -at 4 -tokens 0,1 -scale test -jobs $$j -q | cmp - $(GOLDEN)/tokens.txt; \
		bin/sweep -study characterize -at 2 -jobs $$j -q | cmp - $(GOLDEN)/characterize.txt; \
		bin/sweep -study chaos -kernel CG -at 4 -faults 7:0.5 -scale test -jobs $$j -q | cmp - $(GOLDEN)/chaos.txt; \
		bin/sweep -study tasks -nodes 2,4 -cutoffs 2,4 -scale test -jobs $$j -q | cmp - $(GOLDEN)/tasks.txt; \
	done
	(bin/slipsim -experiment fig2 -scale test -nodes 4 -q && bin/slipsim -experiment fig3 -scale test -nodes 4 -q) | cmp - $(GOLDEN)/static.txt
	(bin/slipsim -experiment fig4 -scale test -nodes 4 -q && bin/slipsim -experiment fig5 -scale test -nodes 4 -q) | cmp - $(GOLDEN)/dynamic.txt
	bin/slipsim -kernel CG -scale test -nodes 4 | grep -v -e '^result norm:' -e '^protocol:' | cmp - $(GOLDEN)/run.txt

# Benchmark baselines are committed as BENCH_PR$(PR).json, one per PR that
# moves performance. BENCHTIME is multi-iteration on purpose: -benchtime=1x
# made ns/op a single noisy sample and the ratchet flapped.
PR ?= 7
BENCH_OUT ?= BENCH_PR$(PR).json
BENCHTIME ?= 3x
BENCH_COUNT ?= 2

# Refuse to overwrite a committed baseline: regenerating an old
# BENCH_PRn.json in place silently rewrites history the ratchet gates
# against. Pick a new BENCH_OUT (or PR=n+1), or pass FORCE=1 to refresh a
# baseline intentionally.
bench:
	@if [ -z "$(FORCE)" ] && git ls-files --error-unmatch $(BENCH_OUT) >/dev/null 2>&1; then \
		echo "bench: $(BENCH_OUT) is a committed baseline; set BENCH_OUT/PR for a new file or FORCE=1 to overwrite"; \
		exit 1; \
	fi
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) -count=$(BENCH_COUNT) -run '^$$' . | $(GO) run ./tools/benchjson -o $(BENCH_OUT)

# CI perf ratchet: run the suite into an untracked candidate file and
# compare against the newest committed BENCH_PRn.json. allocs/op is
# deterministic in this simulator, so it gets the tight 10% gate; ns/op
# varies 10-20% run to run even on an idle host, so its default gate only
# catches gross slowdowns (tighten with NS_TOL=0.10 on a quiet machine).
NS_TOL ?= 0.30
ALLOCS_TOL ?= 0.10
bench-check:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) -count=$(BENCH_COUNT) -run '^$$' . | $(GO) run ./tools/benchjson -o BENCH_candidate.json
	$(GO) run ./tools/benchdiff -baseline latest -new BENCH_candidate.json -ns-tol $(NS_TOL) -allocs-tol $(ALLOCS_TOL)

# Short fuzz passes over the parser surfaces (one target per invocation:
# the go tool runs a single fuzz target at a time).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzCampaignSpec -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzParseEnv -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzPentaSolve -fuzztime 10s ./internal/npb
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzClaimWire -fuzztime 10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzClaimMerge -fuzztime 10s ./internal/cluster

# Seeded cluster simulation sweep (internal/cluster/simtest): every
# schedule runs real coordinators/workers/claimers over the netchaos
# fabric — crashes, partitions, loss, duplication, clock skew — and the
# invariant checker must stay silent. A failing seed reproduces alone:
# `go run ./tools/clustersim -start <seed> -seeds 1 -v`.
SIM_SEEDS ?= 500
SIM_START ?= 1
sim-cluster:
	$(GO) run ./tools/clustersim -start $(SIM_START) -seeds $(SIM_SEEDS)

# Extended soak: more seeds, longer horizons, heavier weather.
sim-cluster-deep:
	$(GO) run ./tools/clustersim -start $(SIM_START) -seeds 2000 -horizon 800ms \
		-chaos 'drop=0.08,delay=0.2:1ms:12ms,dup=0.05,reorder=0.05,skew=25ms'

# End-to-end: boot a real slipd, drive one job over HTTP, cancel one,
# then SIGKILL it mid-job and assert the restart recovers the journal.
smoke:
	mkdir -p bin
	$(GO) build -o bin/slipd ./cmd/slipd
	$(GO) run ./tools/smoke bin/slipd

# Fleet drill: coordinator + 2 workers on the pull path, SIGKILL the
# worker holding a claim and require the survivor to finish the job
# byte-identically via lease expiry; then a zero-worker coordinator must
# execute locally in degraded mode.
smoke-fleet:
	mkdir -p bin
	$(GO) build -o bin/slipd ./cmd/slipd
	$(GO) run ./tools/smokefleet bin/slipd fleet

# HA drill: two peered coordinators, SIGKILL the one that granted the
# in-flight lease; the survivor's replicated lease must expire, be
# reclaimed by a worker, and settle with byte-identical result bytes and
# zero stranded claims.
smoke-ha:
	mkdir -p bin
	$(GO) build -o bin/slipd ./cmd/slipd
	$(GO) run ./tools/smokefleet bin/slipd ha

# Overload drill: a rate-limited flood tenant is refused 429 with
# Retry-After while a probe tenant's job completes untouched; a
# halt-policy campaign deterministically skips its pending cell after a
# mid-run cancellation; the probe result is byte-identical to the same
# spec on an unloaded instance.
smoke-overload:
	mkdir -p bin
	$(GO) build -o bin/slipd ./cmd/slipd
	$(GO) run ./tools/smokeoverload bin/slipd
