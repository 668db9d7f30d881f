# Mirrors .github/workflows/ci.yml so local runs and CI stay in lockstep.

GO ?= go

.PHONY: build test race vet fmt-check unlinked fuzz bench bench-compare benchmark-test alloc-gate ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every test under the race detector: the engine's pool and batch paths,
# the serving, chaos and cluster suites, and the real-binary daemon tests
# included. CI's build-test job runs the same command.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needs to run on:" >&2; echo "$$out" >&2; exit 1; fi

# Functions no binary links: builds every command, example and the
# benchmark with inlining off and lists each non-test func declaration
# missing from their symbols. Fails on any name outside the kept list in
# unlinked.sh (~15 s).
unlinked:
	bash unlinked.sh

# Fuzz the solve-request contract (strict decoding, Normalize, cache
# keys), the bounded body reader (api.ReadBody), the text graph decoder
# (against its reference) and the ARBCSR01 decoder for 10s each beyond
# their seed corpora, which `go test ./...` already runs. The graph
# corpora hold kilobyte bodies, and with its default 60s the minimizer
# can spend a whole 10s budget on one of them (a mutated ARBCSR01 blob
# fails its checksum on almost every byte it drops); 1s leaves the budget
# to new inputs.
fuzz:
	$(GO) test ./internal/api/ -run '^$$' -fuzz FuzzSolveRequest -fuzztime 10s
	$(GO) test ./internal/api/ -run '^$$' -fuzz '^FuzzReadBody$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/graph/ -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/graph/ -run '^$$' -fuzz '^FuzzDecodeBinary$$' -fuzztime 10s -fuzzminimizetime 1s

# Engine-scale benchmarks (the million-node routing benchmark included).
bench:
	$(GO) test ./internal/congest/ -run 'xxx' -bench . -benchtime 1x

# Compare two committed engine-benchmark records (benchstat format). The
# defaults pin the engine whose Lemma 4.6 extension puts idle nodes to
# sleep (pr27) against the one whose full walks on large graphs touch
# each block's neighbor heads before pulling it (pr29); ns/op of
# BenchmarkRunLarge (10⁶ nodes, above the touch gate) is the headline, and
# BenchmarkWeightedRandomizedServe (n=20000, below it) the control.
# Override with BENCH_OLD=/BENCH_NEW= to compare other points
# on the trajectory (the older BENCH_*_engine_* records are also
# committed). A record that holds a parent and a change run tells them
# apart by its tree key, so columns split by file and tree.
# Note each record's numcpu/gomaxprocs header before reading workers>1
# rows as a scaling curve — single-core records measure dispatch
# overhead, not scaling. Uses benchstat when available (CI installs it); falls
# back to printing both records side by side offline.
BENCH_OLD ?= BENCH_2026-10-19_engine_pr27.txt
BENCH_NEW ?= BENCH_2026-10-19_engine_pr29.txt
bench-compare:
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat -col .file,tree $(BENCH_OLD) $(BENCH_NEW); \
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
# reused Runner; far below one-per-node transient), a transient
# broadcast-then-request run within TestMemoryCeiling's 120 bytes per
# node, and a transient Theorem 1.1 solve of a 2·10⁵-node forest within
# TestSolveMemoryCeiling's 320 bytes per node. All three run inside the
# normal test suite too; this target exists so CI (and humans) can
# exercise them explicitly next to bench-compare.
alloc-gate:
	$(GO) test ./internal/congest/ -run 'TestAllocationCeiling|TestMemoryCeiling' -count=1 -v
	$(GO) test ./internal/mds/ -run 'TestSolveMemoryCeiling' -count=1 -v

# The build-test job of ci.yml, step for step.
ci: build vet fmt-check unlinked race benchmark-test fuzz
