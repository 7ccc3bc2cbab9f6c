# Tier-1 gate: everything a PR must keep green.
.PHONY: check fmt build vet cross test race race-ft race-flaky serve-test transport-test partition-test front-test device-test campaign-test adapt-test docs-lint examples bench-build bench bench-gate microbench

check: fmt build vet cross test race-ft race-flaky serve-test transport-test partition-test front-test device-test campaign-test adapt-test docs-lint examples bench-build

# gofmt -l prints nothing (and exits 0) on a clean tree; any output fails
# the gate via the grep.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	go build ./...

vet:
	go vet ./...

# Cross-architecture and fused-build gate for the amd64 assembly kernels:
# an arm64 vet and build catch an entry point missing its gemm_noasm.go
# stub, and the cmat bitwise pins rerun under GOAMD64=v3, where the
# compiler may fuse a scalar multiply-add into an FMA (the pins' oracles
# round explicitly, so they must hold there too; the span product's pin
# matches 'Bitwise'), as do the rgf pins of one G^R/G^≷ sweep against
# separate retarded and Keldysh solves and of the coupling-support path
# against the same solves with every product run whole, and the pin of the
# in-place Anderson update, whose one-pass Gram accumulation must sum every
# entry as the reference's separate dot products do.
cross:
	GOARCH=arm64 go vet ./internal/cmat
	GOARCH=arm64 go build ./...
	GOAMD64=v3 go test -count=1 -run 'Bitwise|Blocked|Naive|Inverse' ./internal/cmat
	GOAMD64=v3 go test -count=1 -run 'OneSweepBitwise|CouplingSupportBitwise' ./internal/rgf
	GOAMD64=v3 go test -count=1 -run 'AndersonRingMatchesReference' ./internal/core

# Includes the doc-comment lint (doclint_test.go) over the exported API of
# internal/obs, internal/comm and internal/core.
test:
	go test ./...

# Race pass over the packages with shared-memory parallelism (worker pool,
# batched GEMM dispatch, banded MulParInto, SSE tiles, core grid loops).
# -short keeps the core suite tractable under the race runtime.
race:
	go test -race -short ./internal/cmat ./internal/pool ./internal/sse ./internal/core

# Race pass over the fault-tolerance surface, gating `check`: the simulated
# cluster's cancellation/deadline paths, core's recovery loop and the shared
# job lifecycle (internal/jobs) the service tiers wait on, and the SSE atom
# tiles, which write one shared output in place without a lock, the
# spatial GF phase's boundary slots, which every rank reads while none
# writes (TestSpatialBoundaryComputedOncePerPoint is not -short-skipped),
# and the distributed SSE workspace, whose ranks write disjoint regions of
# one shared result phase after phase
# (TestDistributedWorkspaceReuseMatchesFresh is not -short-skipped), and
# the fused tile kernels' register accumulators, which two workers' atom
# tiles race through in TestComputePhaseParallelMatchesReferenceOrder
# (TestTileKernelsMatchReferenceOrderBitwise and
# TestDistributedTileMatchesReferenceOrder run there too; none is
# -short-skipped).
# -short skips the long self-consistent physics runs, keeping the race gate
# on the concurrency-heavy tests.
race-ft:
	go test -race -short ./internal/comm ./internal/core ./internal/serve ./internal/jobs
	go test -race -short -run 'Parallel|Tile' ./internal/sse

# Repeated race runs of the two service-tier lifecycle tests whose races a
# single race-ft pass caught only now and then: the submit response's state
# (a 202 body is the job's status at admission, so it says "queued") and
# the removal of an evicted job's per-job metric families before the job
# leaves the store.
race-flaky:
	go test -race -count=50 -run 'TestHTTPLifecycle$$|TestPerJobMetricsEvicted$$' ./internal/serve

# End-to-end smoke tests of the qtsimd daemon: build the real binary and
# start it on ephemeral ports. TestServeSmoke submits a job to a worker,
# streams its iterations, cancels it, runs a second job to completion, and
# checks the SIGTERM drain exits clean; TestFrontRoleSmoke runs a worker
# behind a `qtsimd -fleet` front, streams a run through the front, checks
# the resubmission is a cache hit, and drains both.
serve-test:
	go test -count=1 -run 'TestServeSmoke|TestFrontRoleSmoke' ./cmd/qtsimd

# Transport conformance under the race detector: both the inproc and the
# loopback-TCP fabrics through the full behavioural suite (ordering,
# cancellation, deadline backstop, dead rank → ErrRankDead, §4.1 byte
# accounting), plus the transport package's own tests.
transport-test:
	go test -race -count=1 ./internal/transport ./internal/comm

# Spatial-split suite under the race detector: the Schur-complement
# partitioned solver (per-segment elimination by the sequential recursion on
# a segment view, one shared reduced-system assembly) pinned against the
# sequential recursion, the
# distributed device-partitioned solve on in-process clusters with exact
# byte accounting, the support path's bitwise pin (whose spatial solves
# share arena blocks across segment goroutines and cluster ranks), and
# core's spatial GF phase including rank-death recovery and the boundary
# slot every rank of a point reads. The TCP half of the conformance pin runs
# under transport-test.
partition-test:
	go test -race -count=1 -run 'Partitioned|Distributed|CouplingSupportBitwise' ./internal/rgf
	go test -race -count=1 -run 'Spatial' ./internal/core

# Front-tier suite under the race detector: content-address
# canonicalization, singleflight dedup with byte-identical streams,
# cache-hit serving, warm starts from adjacent bias points, quota 429s and
# worker-death rerouting against in-process qtsimd workers.
front-test:
	go test -race -count=1 ./internal/front

# Device-zoo suite: spec round-trip/strictness/canonicalization, the
# zone-folding physics pins (metallicity classes, gap ∝ 1/d, junction band
# alignment) and the block-tridiagonal invariants every kind must emit.
device-test:
	go test -race -count=1 ./internal/device

# Campaign suite under the race detector: request validation, the
# warm-chained I–V ladder on an in-process scheduler (qtsim -campaign's
# host) against point-by-point direct runs (1e-8), the T(E) artifact, the
# HTTP lifecycle end-to-end through a scheduler, and the sharded front
# tier's seeds: each point from its own chain predecessor, cold ladders
# cold.
campaign-test:
	go test -race -count=1 ./internal/campaign

# Adaptive energy-grid suite under the race detector: the egrid
# controller/quadrature unit tests, the adaptive-vs-uniform agreement pins
# across all four zoo kinds (plus the bit-compatibility pin on the full
# grid), checkpoint/resume and distributed adaptive in core, the
# warm-chained adaptive I–V ladder in campaign (on an in-process
# scheduler, as qtsim -campaign runs it), the scheduler dispatch /
# warm-gate tests in serve, and the adapt cache-key canonicalization in
# front.
adapt-test:
	go test -race -count=1 ./internal/egrid
	go test -race -count=1 -run 'Adaptive|UniformRunBit|IntegratedCurrent|SparseGrid|AdaptSpec|AdaptConfig|ParseRejectsUnknownAdapt' ./internal/core
	go test -race -count=1 -run 'Adaptive|PartialGrid' ./internal/campaign ./internal/serve
	go test -race -count=1 -run 'KeyOfAdapt' ./internal/front

# Docs lint: every relative markdown link in README, the root docs and
# docs/ must resolve to an existing file and every `go run ./<dir>` to a
# package directory, so renames can't silently rot the docs suite; every
# backticked `pkg.Name` in README, ARCHITECTURE, DESIGN, EXPERIMENTS and
# docs/ must name a declaration or method of internal/pkg, so deleted code
# can't stay cited; and the paper-ledger tables in EXPERIMENTS.md must
# equal `qtpaper` output byte for byte, so a model or kernel change that
# moves a number fails here.
docs-lint:
	go test -count=1 -run 'TestDocLinks|TestDocSymbols' .
	go test -count=1 -run Ledger ./cmd/qtpaper

# Runs each examples/* program; any non-zero exit fails the gate.
examples:
	@for d in examples/*/; do echo "go run ./$$d"; go run ./$$d > /dev/null || exit 1; done

# The benchmark is its own module (bench/), which `go build ./...` skips:
# build it and run its unit tests here, so an API change that breaks
# bench/adapter.go fails locally instead of as a run_failed verdict.
bench-build:
	GOWORK=off GOFLAGS= go build -C bench -o /dev/null .
	cd bench && GOWORK=off go test ./...

# The repo's one benchmark (BENCHMARK.json; see bench/README.md).
bench:
	bash bench/run.sh

# Advisory: a fresh run compared against the committed baseline.
bench-gate:
	bash bench/run.sh --out .bench_build/new.json
	bash bench/run.sh compare bench/baseline/HEAD.json .bench_build/new.json

# Table 6/7, end-to-end and ablation benchmarks plus the kernel-engine
# micro-benchmarks (go test -bench; not the repo's one benchmark, which is
# `make bench`).
microbench:
	go test -bench . -benchtime 3x -run '^$$' .
	go test -bench 'BenchmarkGEMM' -benchtime 20x -run '^$$' ./internal/cmat
	go test -bench 'BenchmarkInverseInto|BenchmarkMulAddNaive' -benchtime 0.5s -run '^$$' ./internal/cmat
