GO ?= go

# Coverage gate: these packages hold the exact period engines, the serving
# layer and the exact search, and must stay above the floor (CI enforces it
# via `make cover`).
COVER_PKGS = ./internal/cycles ./internal/mpa ./internal/core ./internal/engine ./internal/service ./internal/bnb ./internal/sched ./internal/store ./internal/ring ./internal/cluster ./internal/jobs ./internal/checkpoint ./internal/clock
COVER_MIN  = 75
# The job manager (PR 9) and the checkpoint store (PR 10) are durability
# keystones: they get a higher floor.
COVER_MIN_JOBS = 85

# Fuzz smoke budget per target (CI runs `make fuzz` on top of the corpus
# replay that plain `go test` already performs).
FUZZTIME ?= 10s

# Benchmarks of the perf-regression job: the period paths, the cycle-ratio
# backends, the engine batch/memoization stack and the branch-and-bound
# search (whose nodes/op + prunedPct metrics expose bounding/symmetry
# regressions as deterministic count jumps). The allocation gate
# (ALLOC_GATE, allocs/op on the strict-model Evaluate benchmarks) guards
# the PR-2 zero-allocation refactor; measured values sit at 6-7. The
# leaf-rate gate (LEAF_GATE) requires the branch and bound's leaf path,
# which evaluates each leaf under the exact cutoff, to rule out leaves at
# >= LEAF_GATE x the rate of a full exact evaluation per leaf, over
# BenchmarkBnBLeafRate's fixed list of 193 leaves, in the median of five
# runs (EXPERIMENTS.md, "Cycle iteration replaces Karp"). The serving
# hit-path gates guard the PR-7 content-addressed store: the by-ID
# /v1/evaluate hit path must stay at or below HITALLOC_GATE allocs/op
# (measured at 8) and run at least SPEEDUP_GATE x faster than the
# inline-instance form of the same hit, in the median of five runs
# (EXPERIMENTS.md, "One-pass request decode").
# The router gate (ROUTER_GATE) guards the PR-8 cluster layer: a memoized
# by-ID hit through the cluster router's core may cost at most ROUTER_GATE x
# the same request against a single node over the same transport (the
# router's response memo keeps the measured ratio below 1x). The job-poll
# gate (JOBALLOC_GATE) guards the PR-9 async surface: one status poll plus
# one result fetch of a terminal job, end to end through the handler stack,
# must stay at or below JOBALLOC_GATE allocs/op (measured at 13). The
# checkpoint gate (CKPT_GATE) guards the PR-10 durability layer: the same
# deterministic bnb search with per-root checkpointing on may cost at most
# CKPT_GATE x the search with it off (BenchmarkCheckpointOverhead's
# on-ns/op over its off-ns/op, both timed in every iteration, median of
# five runs), or the per-root bookkeeping has grown onto the walker's hot
# path.
# BenchmarkRat records the rational kernel's int64 path next to math/big on
# the same operands (and a forced big fallback); it carries no gate.
# BenchmarkContraction records MaxRatio (plan compile plus cycle iteration
# from 0; the name stays from the contraction + Karp engine it replaced) on
# its scaled int64 path next to the forced rational loops, on a grid-size
# strict TPN and the m = 2520 net; it carries no gate either. BenchmarkBestOf records
# cold best-of heuristic searches (allocs/op and column-solves/op, the
# overlap walks' pattern-graph solves); no gate. BenchmarkDecodeRequest
# records the request decoder on a by-ID hit, an inline miss and a
# registration body of the serving benchmark's instance family; no gate.
BENCH_REGRESSION = BenchmarkPeriodStrict|BenchmarkPeriodOverlapPoly|BenchmarkPeriodBackends|BenchmarkSpectralBackends|BenchmarkEngines|BenchmarkEngineBatch|BenchmarkEngineMemoization|BenchmarkBnBSearch|BenchmarkRouterHitPath|BenchmarkJobSubmitPollOverhead|BenchmarkRat|BenchmarkContraction|BenchmarkBestOf|BenchmarkDecodeRequest
ALLOC_GATE = 12
LEAF_GATE = 5
HITALLOC_GATE = 32
SPEEDUP_GATE = 4
ROUTER_GATE = 2
JOBALLOC_GATE = 32
CKPT_GATE = 1.05

.PHONY: all vet build test race check bench bench-regression cover fuzz fmt lint loc

all: vet build test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check = everything CI runs: lint, build, tests (plain and -race), the
# coverage gate, the fuzz smoke, and a short bench smoke (one iteration per
# benchmark with -benchmem, so allocation regressions show up in the log).
check: lint build test race cover fuzz bench

# lint fails on unformatted files, vet findings, and (when the binaries are
# installed — CI installs them) staticcheck and govulncheck findings.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

bench:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem ./...

# bench-regression runs the period/backend/engine/bnb/serving/cluster/jobs/
# checkpoint benchmarks at a fixed iteration count, converts them to
# BENCH_10.json (uploaded as a CI artifact) and fails if the strict-model
# Evaluate allocs/op regress above ALLOC_GATE, the cutoff leaf rate drops
# below LEAF_GATE x exact, the by-ID serving hit path regresses above
# HITALLOC_GATE allocs/op, the by-ID/inline hit-path speedup drops below
# SPEEDUP_GATE x, the routed hit path costs more than ROUTER_GATE x the
# direct single-node hit, the async job poll path regresses above
# JOBALLOC_GATE allocs/op, or checkpointing costs the walker more than
# CKPT_GATE x the same search without it. The leaf-rate, hit-path speedup
# and checkpoint gates, the three that sit closest to their noise, run
# their benchmarks five times, gate the median ratio and print every run's
# ratio.
bench-regression:
	@status=0; $(GO) test -run xxx -bench '$(BENCH_REGRESSION)' -benchtime 100x -benchmem . ./internal/bnb ./internal/service ./internal/cluster ./internal/checkpoint ./internal/rat ./internal/cycles ./internal/sched > bench_regression.txt || status=$$?; \
	if [ "$$status" = "0" ]; then $(GO) test -run xxx -bench 'BenchmarkBnBLeafRate|BenchmarkCheckpointOverhead|BenchmarkServeHitPath' -benchtime 100x -count 5 -benchmem ./internal/bnb ./internal/checkpoint ./internal/service >> bench_regression.txt || status=$$?; fi; \
	cat bench_regression.txt; \
	if [ "$$status" != "0" ]; then echo "bench-regression: go test failed ($$status)"; exit $$status; fi
	awk -v gate=$(ALLOC_GATE) -v leafgate=$(LEAF_GATE) -v hitgate=$(HITALLOC_GATE) -v speedupgate=$(SPEEDUP_GATE) -v routergate=$(ROUTER_GATE) -v joballocgate=$(JOBALLOC_GATE) -v ckptgate=$(CKPT_GATE) -f scripts/benchjson.awk bench_regression.txt > BENCH_10.json
	@echo "wrote BENCH_10.json ($$(grep -c '"name"' BENCH_10.json) benchmarks, alloc gate $(ALLOC_GATE), leaf-rate gate $(LEAF_GATE)x, hit-alloc gate $(HITALLOC_GATE), speedup gate $(SPEEDUP_GATE)x, router gate $(ROUTER_GATE)x, job-poll gate $(JOBALLOC_GATE), checkpoint gate $(CKPT_GATE)x)"

# cover fails when any of COVER_PKGS drops below COVER_MIN% statement
# coverage. Uses -coverprofile + `go tool cover -func` rather than grepping
# the `go test -cover` summary line, which broke on "[no statements]" /
# "[no test files]" outputs.
cover:
	@fail=0; \
	for p in $(COVER_PKGS); do \
		floor=$(COVER_MIN); \
		case $$p in ./internal/jobs|./internal/checkpoint) floor=$(COVER_MIN_JOBS);; esac; \
		tmp=$$(mktemp); \
		if ! $(GO) test -coverprofile=$$tmp $$p > /dev/null 2>&1; then \
			echo "$$p: tests failed"; fail=1; rm -f $$tmp; continue; \
		fi; \
		pct=$$($(GO) tool cover -func=$$tmp | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
		rm -f $$tmp; \
		if [ -z "$$pct" ]; then echo "$$p: no coverage reported"; fail=1; continue; fi; \
		echo "$$p: $$pct% (floor $$floor%)"; \
		if [ "$$(awk -v p="$$pct" -v m=$$floor 'BEGIN{print (p+0 >= m) ? 1 : 0}')" != "1" ]; then fail=1; fi; \
	done; \
	if [ "$$fail" = "1" ]; then echo "FAIL: coverage below the floor"; exit 1; fi

# fuzz runs each native fuzz target for FUZZTIME of coverage-guided input
# generation (the committed corpora under testdata/fuzz replay in plain
# `go test` runs).
fuzz:
	$(GO) test -run xxx -fuzz FuzzPeriodBackends -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz FuzzMaxRatio -fuzztime $(FUZZTIME) ./internal/cycles
	$(GO) test -run xxx -fuzz FuzzRatArith -fuzztime $(FUZZTIME) ./internal/rat
	$(GO) test -run xxx -fuzz FuzzRatParse -fuzztime $(FUZZTIME) ./internal/rat
	$(GO) test -run xxx -fuzz FuzzInstanceJSON -fuzztime $(FUZZTIME) ./internal/model
	$(GO) test -run xxx -fuzz FuzzInstanceDecode -fuzztime $(FUZZTIME) ./internal/model
	$(GO) test -run xxx -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME) ./internal/service

fmt:
	gofmt -l -w .

# loc prints the non-test Go line count the roadmap tracks like a benchmark:
# tracked *.go files, without _test.go files and the perfbench/ module.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^perfbench/' | xargs cat | wc -l
