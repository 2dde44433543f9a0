# Convenience targets for the mcpart reproduction.

GO ?= go

.PHONY: all build test test-short race check deps-check loc api cover profile fuzz bench bench-quick bench-partition bench-interp bench-store bench-sweep bench-serve bench-harness serve-smoke eval fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Skips the slow full-suite integration and fuzz tests.
test-short:
	$(GO) test -short ./...

# Runs the full test suite under the race detector; the parallel
# evaluation pipeline (internal/parallel, eval.Exhaustive, eval.RunMatrix)
# must stay race-free at every -j value. The timeout is per test binary:
# internal/eval's took 659 s on a 2-vCPU container (746 s wall for the
# whole target), past go test's 10-minute default; 30 minutes leaves it
# about 2.7x headroom.
race:
	$(GO) test -race -timeout 30m ./...

# The default verification gate: formatting, build, vet, the dependency
# gate, plain tests, race tests. fmt-check fails (listing the offending
# files) if any file is not gofmt-clean.
check: fmt-check build vet deps-check test race

# The tree-walking interpreter (internal/interp) is a test oracle: no tool
# or example may link it. The partitioner and its two callers run serially
# under the evaluation pipeline's one worker pool: none of them may depend
# on internal/parallel. Fails, naming the importers, if either rule breaks.
PARTITION_PKGS = ./internal/partition ./internal/gdp ./internal/rhop

deps-check:
	@if $(GO) list -deps ./cmd/... ./examples/... | grep -qx 'mcpart/internal/interp'; then \
		echo "mcpart/internal/interp is linked into a tool or example:"; \
		$(GO) list -f '{{.ImportPath}}: {{join .Deps " "}}' ./cmd/... ./examples/... | \
			grep -w 'mcpart/internal/interp' | cut -d: -f1; exit 1; fi
	@if $(GO) list -deps $(PARTITION_PKGS) | grep -qx 'mcpart/internal/parallel'; then \
		echo "mcpart/internal/parallel is a dependency of the partitioner:"; \
		$(GO) list -deps -f '{{.ImportPath}}: {{join .Imports " "}}' $(PARTITION_PKGS) | \
			grep -E ' mcpart/internal/parallel( |$$)' | cut -d: -f1; exit 1; fi

# Go source size outside the benchmark harness (its own module): line and
# file counts of the non-test and the test files.
LOC_FIND = find . -path ./benchmark -prune -o -name '*.go'

loc:
	@echo "non-test Go: $$($(LOC_FIND) ! -name '*_test.go' -exec cat {} + | wc -l) lines in $$($(LOC_FIND) ! -name '*_test.go' -print | wc -l) files"
	@echo "test Go: $$($(LOC_FIND) -name '*_test.go' -exec cat {} + | wc -l) lines in $$($(LOC_FIND) -name '*_test.go' -print | wc -l) files"

# Exported API surface of the root mcpart package and of each internal
# package, read from `go doc -all`: the exported types, and the exported
# functions and methods (constructors and methods listed under their types
# included).
api:
	@for p in $$($(GO) list . ./internal/...); do \
		doc="$$($(GO) doc -all $$p)"; \
		echo "$${p#mcpart/}: $$(printf '%s\n' "$$doc" | grep -c '^type ') types, $$(printf '%s\n' "$$doc" | grep -c '^func ') funcs/methods"; \
	done

# CPU and heap profiles of the cold pipeline, the ones speed claims about a
# stage's share are sized from: five cold `gdpbench -json -j 1` runs, each
# writing a CPU and a heap profile into .profile/ (git-ignored), then
# `go tool pprof -top -cum` of the five CPU profiles together and
# `go tool pprof -sample_index=alloc_space -top` of the five heap profiles
# (its total divided by five is the bytes allocated per run).
profile:
	@mkdir -p .profile
	$(GO) build -o .profile/gdpbench ./cmd/gdpbench
	@for i in 1 2 3 4 5; do \
		.profile/gdpbench -json -j 1 -cpuprofile .profile/cpu$$i.prof \
			-memprofile .profile/mem$$i.prof > /dev/null || exit 1; done
	$(GO) tool pprof -top -cum .profile/gdpbench .profile/cpu1.prof .profile/cpu2.prof \
		.profile/cpu3.prof .profile/cpu4.prof .profile/cpu5.prof
	$(GO) tool pprof -sample_index=alloc_space -top .profile/gdpbench .profile/mem1.prof \
		.profile/mem2.prof .profile/mem3.prof .profile/mem4.prof .profile/mem5.prof

.PHONY: fmt-check
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Coverage gate and report. The observability layer is pure bookkeeping —
# if a branch there is hard to cover, it is dead weight on a hot path —
# so internal/obs carries its own floor (OBS_COVER_MIN%), checked from a
# dedicated profile. The repo-wide profile (coverage.out + coverage.txt)
# is informational and uploaded as a CI artifact.
OBS_COVER_MIN ?= 85

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out > coverage.txt
	@tail -1 coverage.txt
	$(GO) test -coverprofile=coverage_obs.out ./internal/obs/
	@pct="$$($(GO) tool cover -func=coverage_obs.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}')"; \
	echo "internal/obs coverage: $$pct% (floor $(OBS_COVER_MIN)%)"; \
	awk -v p="$$pct" -v min="$(OBS_COVER_MIN)" 'BEGIN { exit !(p+0 < min+0) }' && \
		{ echo "internal/obs coverage $$pct% is below the $(OBS_COVER_MIN)% floor"; exit 1; } || true

# Native Go fuzzing over the six harnesses: raw bytes through the
# parser, (source, unroll) pairs through the full front end with an IR
# verifier oracle, progen seeds through the whole pipeline with the
# checksum-preservation and independent-validator oracles, mclang
# source through the bytecode VM with the tree-walking interpreter as the
# differential oracle (FuzzVM), progen seeds through the Gray-code
# delta sweep with the full per-mask engine and the branch-and-bound
# search as differential oracles (FuzzSweep), and progen programs ×
# random valid machine topologies through the validated scheme suite
# and the base-k sweep differentials (FuzzTopology). `go test` accepts
# one -fuzz pattern per invocation, hence six runs. Tune with e.g.
# `make fuzz FUZZTIME=5m`.
FUZZTIME ?= 30s

fuzz:
	$(GO) test ./internal/mclang/ -run XXX -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mclang/ -run XXX -fuzz FuzzCompile -fuzztime $(FUZZTIME)
	$(GO) test ./internal/eval/ -run XXX -fuzz FuzzPipeline -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bytecode/ -run XXX -fuzz FuzzVM -fuzztime $(FUZZTIME)
	$(GO) test ./internal/eval/ -run XXX -fuzz FuzzSweep -fuzztime $(FUZZTIME)
	$(GO) test ./internal/eval/ -run XXX -fuzz FuzzTopology -fuzztime $(FUZZTIME)

# Regenerates every table and figure of the paper as benchmark metrics.
bench:
	$(GO) test -run XXX -bench . -benchtime 1x . | tee bench_output.txt

# One-iteration smoke pass over the headline benchmarks (Table 1, the
# Figure 9 search, and the cold-cache memoized exhaustive search) — quick
# signal that the evaluation engine still runs end to end.
bench-quick:
	$(GO) test -run XXX -benchtime 1x \
		-bench 'BenchmarkTable1|BenchmarkFigure9|BenchmarkExhaustiveMemo' .

# Partitioner microbenchmarks: bisection of region-sized graphs (batches
# of 100 seeded graphs of 16/48/96 nodes, half of them fixed anchors, the
# sizes RHOP partitions) and of 1k/10k/100k synthetic graphs, plus 4-way
# partitioning (time, allocations, cut weight). The legacy-path rows of
# BENCH_partition.json predate the removal of that path and are not
# reproduced here, and the region arms have no rows there (see
# EXPERIMENTS.md).
bench-partition:
	$(GO) test ./internal/partition/ -run XXX \
		-bench 'BenchmarkBisect|BenchmarkKWay' -benchtime 5x \
		| tee bench_partition_output.txt

# Profiling-engine A/B: the bytecode VM vs the tree-walking interpreter
# on the same profiling jobs (fresh engine + one full run per iteration,
# bytecode compilation included). The raw numbers are refreshed into
# BENCH_interp.json (see that file for the recorded analysis).
bench-interp:
	$(GO) test ./internal/bytecode/ -run XXX \
		-bench 'BenchmarkProfileTree|BenchmarkProfileVM' -benchtime 5x \
		| tee bench_interp_output.txt

# Persistent artifact-store A/B: the Figure 9 sweep cold (empty cache)
# vs warm after a simulated process restart (open + index rebuild +
# deserialization all inside the timed warm run). The raw numbers are
# refreshed into BENCH_store.json (see that file for the recorded
# analysis and the >=5x acceptance target).
bench-store:
	$(GO) test -run XXX -bench BenchmarkStoreWarmRestart -benchtime 5x . \
		| tee bench_store_output.txt

# Sweep-engine benchmarks: the Gray-code delta sweep on the Figure 9
# benchmarks, plain (delta-s/op) and validated (validated-s/op), cold
# cache per iteration, median-reduced; plus the branch-and-bound
# best-mapping search on a 22-object instance with a time-budgeted
# enumeration attempt through the delta sweep for contrast. The per-mask
# rows of BENCH_sweep.json predate the removal of that A/B arm and are not
# reproduced here (see EXPERIMENTS.md).
bench-sweep:
	$(GO) test -run XXX \
		-bench 'BenchmarkExhaustiveSweep|BenchmarkBestMapping' \
		-benchtime 20x . | tee bench_sweep_output.txt

# gdpd load harness: the daemon self-hosted on a loopback port with fault
# injection enabled, driven with mixed traffic (all four endpoints, all
# schemes, injected faults and hopeless deadlines) at several concurrency
# levels. Every 200 is verified byte-for-byte against a serial oracle —
# a single mismatch or untyped failure fails the target. The report
# (latency percentiles + shed/degrade counts) is refreshed into
# BENCH_serve.json (see that file for the recorded analysis).
# Workers pace at 20 ms think time, so offered load is ~50 req/s per
# concurrency level regardless of machine speed; the admission envelope
# (-maxconcurrent 2 -queue 4, token bucket 250/s burst 20) then admits
# levels 1 and 4 cleanly and sheds part of level 16 — via the token
# bucket everywhere, plus queue pressure on multicore runners. Shed
# requests must be typed 429/503s, never lost or wrong.
bench-serve:
	$(GO) run ./cmd/gdpd -loadtest -levels 1,4,16 -requests 96 \
		-seed 1 -faultpct 25 -pacing 20ms -maxconcurrent 2 -queue 4 \
		-rate 250 -burst 20 \
		-o BENCH_serve.json | tee bench_serve_output.txt

# The benchmark harness (benchmark/, its own Go module over this checkout)
# is outside ./... so the targets above never build it: vet it and run its
# short unit tests, so an API change that breaks it shows up here.
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# Boot-and-drain smoke test over a real socket: start gdpd with fault
# injection, wait for /healthz, exercise a clean request, a degraded
# request, and a typed injected failure, then SIGTERM and require a clean
# drain (exit 0). Complements the in-process tests with a real process
# lifecycle.
serve-smoke:
	./scripts/serve_smoke.sh

# Prints the paper's tables and figures as formatted text.
eval:
	$(GO) run ./cmd/gdpbench -all

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
