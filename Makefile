# Mirrors .github/workflows/ci.yml so local runs and CI stay in lockstep.

GO ?= go

.PHONY: build test race vet fmt-check bench bench-json bench-compare benchmark-test alloc-gate batch-race server-race chaos-race cluster-race ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needs to run on:" >&2; echo "$$out" >&2; exit 1; fi

# Engine-scale benchmarks (the million-node routing benchmark included).
bench:
	$(GO) test ./internal/congest/ -run 'xxx' -bench . -benchtime 1x

# Machine-readable experiment record; commit one per milestone as
# BENCH_$(shell date +%F)_small.json to extend the perf trajectory.
bench-json:
	$(GO) run ./cmd/mdsbench -scale small -seed 1 -format json

# Compare two committed engine-benchmark records (benchstat format). The
# defaults pin the staged push router (drain/merge staging) against the
# pull router (one outbox entry per broadcast, two phases per round);
# override with BENCH_OLD=/BENCH_NEW= to compare other points on the
# trajectory (the older BENCH_*_engine_* records are also committed).
# Note each record's numcpu/gomaxprocs header before reading workers>1
# rows as a scaling curve — single-core records measure dispatch
# overhead, not scaling. Uses benchstat when available (CI installs it); falls
# back to printing both records side by side offline.
BENCH_OLD ?= BENCH_2026-08-07_engine_pr9.txt
BENCH_NEW ?= BENCH_2026-10-16_engine_pr12.txt
bench-compare:
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat $(BENCH_OLD) $(BENCH_NEW); \
	else \
		echo "benchstat not installed (go install golang.org/x/perf/cmd/benchstat@latest);"; \
		echo "raw records:"; \
		echo "--- $(BENCH_OLD)"; grep Benchmark $(BENCH_OLD); \
		echo "--- $(BENCH_NEW)"; grep Benchmark $(BENCH_NEW); \
	fi

# The repo benchmark (benchmark/, run by `bash benchmark/run.sh`) is a
# module of its own, so `go test ./...` at the root does not reach it.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Allocation-regression gate: a mid-size run must stay within the
# testing.AllocsPerRun ceilings of TestAllocationCeiling (O(1) allocs on a
# reused Runner; far below one-per-node transient). Runs inside the normal
# test suite too; this target exists so CI (and humans) can exercise it
# explicitly next to bench-compare.
alloc-gate:
	$(GO) test ./internal/congest/ -run TestAllocationCeiling -count=1 -v

# Race-mode batch smoke: the concurrent RunnerPool/Batch paths (slot
# determinism, aborted-job recovery, checkout under contention,
# context-cancelled checkouts and batches) and the bench layer's
# parallel-vs-sequential table identity plus sweep cancellation, under
# the race detector. Runs inside `make race` too; this target exists so
# CI (and humans) can exercise exactly the batch stack next to
# alloc-gate.
batch-race:
	$(GO) test ./internal/congest/ -race -run 'TestBatch|TestRunBatch|TestRunnerPool|TestGetContext' -count=1
	$(GO) test ./internal/bench/ -race -run 'TestParallelMatchesSequential|TestSweepCancellation' -count=1

# Race-mode serving smoke: the arbods-server stack (content-addressed
# graph cache, solve-response cache, singleflight builds, admission
# control, deadline/disconnect cancellation, pooled solves with Detach
# hand-off, NDJSON streaming) plus the daemon round trip and the
# engine-side Detach/observer/context tests, under the race detector.
# Runs inside `make race` too; this target exists so CI (and humans)
# can exercise exactly the serving stack next to batch-race.
server-race:
	$(GO) test ./internal/server/ ./cmd/arbods-server/ -race -count=1
	$(GO) test ./internal/congest/ -race -run 'TestDetach|TestRoundObserver|TestRunContext|TestGetContext' -count=1

# Race-mode chaos smoke: the fault-tolerance stack under deterministic
# injection (internal/faultinject) — proc-panic isolation and Runner
# replacement, snapshot persistence across restart/corruption/write
# failure, fairness and admission shedding, drain readiness, the engine's
# own panic-recovery tests, and the SIGKILL crash-restart test on the
# real daemon binary. Runs inside `make race` too; this target exists so
# CI (and humans) can exercise exactly the failure paths next to
# server-race.
chaos-race:
	$(GO) test ./internal/server/ -race -run 'TestSolvePanicIsolation|TestSnapshot|TestHotGraphShed|TestQueueFullShed|TestReadyzDrain' -count=1
	$(GO) test ./internal/congest/ -race -run 'TestProcPanic|TestPanicIn|TestRunnerPoolReplacesPoisoned|TestFaultInjection' -count=1
	$(GO) test ./internal/faultinject/ -race -count=1
	$(GO) test ./internal/graph/ -race -run 'TestBinary' -count=1
	$(GO) test ./cmd/arbods-server/ -race -run 'TestCrashRestart' -count=1

# Race-mode cluster smoke: the resilient-serving stack — rendezvous
# ownership and probe health (internal/cluster), the retry/backoff/
# breaker client with receipt verification (client), the in-process
# proxy/replication/fallback/partition tests, and the real-binary
# SIGKILL + blackhole failover acceptance test. Runs inside `make race`
# too; this target exists so CI (and humans) can exercise exactly the
# failover paths next to chaos-race.
cluster-race:
	$(GO) test ./internal/cluster/ ./client/ -race -count=1
	$(GO) test ./internal/server/ -race -run 'TestCluster|TestAdaptiveRetryAfter' -count=1
	$(GO) test ./cmd/arbods-server/ -race -run 'TestClusterChaosFailover' -count=1

ci: build vet fmt-check race
