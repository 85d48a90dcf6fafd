# Development entry points. `make check` is the tier-1 gate every PR must
# keep green (see ROADMAP.md).

GO ?= go

.PHONY: check lint fmt vet build test race benchcheck benchsmoke fuzz smoke benchmark loc

check: build lint test race benchcheck benchsmoke

# Static analysis: gofmt, go vet (also at GOARCH=arm64, which type-checks
# the build that has only the Go kernel bodies), and sparselint
# (internal/lint — the repo-specific hot-path/locking/ownership/ctx/
# determinism analyzers).
lint:
	./scripts/lint.sh

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The serving layer, scheduler, runtime backends, graph builder, solver
# drivers and preconditioner are the concurrency hot spots; they must also
# pass under the race detector (the steal-half paths in sched, Regent's
# shared ready queue, and the level-scheduled triangular wavefronts,
# especially).
# sparse is here for one guarantee the engine leans on: conversions of an
# already compact COO only read it, so concurrent jobs may share one.
# sparselint runs its analyzers concurrently over shared ASTs and one call
# graph; TestDirectiveValidation runs the full set at once. The -run filter
# keeps the whole-module load of TestRepoIsClean out of the race build.
# The race detector does not see memory accesses made from assembly, so a
# -race build compiles the Go bodies of the sparse and dense kernels instead
# of their AVX2 assembly: the race matrix runs, and instruments, the Go
# bodies on every host.
race:
	$(GO) test -race ./internal/server/... ./internal/route/... ./internal/sparse/... ./internal/sched/... ./internal/graph/... ./internal/rt/... ./internal/solver/... ./internal/precond/... ./internal/roofline/...
	$(GO) test -race -run 'TestDirectiveValidation|TestAnalyzerFixtures' ./internal/lint/

# The repository benchmark is a nested module (benchmark/go.mod), which the
# root `go vet ./...` and `go test ./...` do not descend into; its tests
# include a -quick pass over all four workloads.
benchcheck:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Every benchmark of the root bench_test.go, one iteration each, so none can
# rot: the paper's experiments (Table 1 to Fig. 14, the block-count sweep,
# the headline and the ablations at the tiny preset), the fine-grain CG per
# backend and width, the executor replay, the kernel benchmarks (the IC(0)
# substitution pair, the dense kernels at LOBPCG's shapes, SpMM on both
# sparse formats at widths 1-8, the Rayleigh-Ritz eigensolve) and the
# first-sight serving stages.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Short fuzz sessions, 30 s each: the MatrixMarket parser, the multi-column
# sparse kernels against their frozen per-entry bodies, and IC(0) on parsed
# documents (regression seeds always run as part of `make test`). `go test
# -fuzz` takes one target per run, hence one line each.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzMatrixMarketRoundTrip$$' -fuzztime 30s ./internal/sparse/
	$(GO) test -run '^$$' -fuzz '^FuzzSpMMRuns$$' -fuzztime 30s ./internal/sparse/
	$(GO) test -run '^$$' -fuzz '^FuzzIC0FromMatrixMarket$$' -fuzztime 30s ./internal/precond/

# End-to-end serving smoke: build solverd + loadgen, serve, 10s of load.
smoke:
	./scripts/smoke.sh

# Non-test Go lines per package directory and in the module, outside the
# nested benchmark/ module and testdata/ fixtures: the counts simplicity
# changes and ROADMAP.md quote.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.*' ! -path './benchmark/*' ! -path '*/testdata/*' \
		-exec wc -l {} + | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\//, "", d); n[d] += $$1; sum += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", sum }'

# The repository benchmark (BENCHMARK.json): all four workloads, end-to-end
# metrics with their regression bounds. See benchmark/README.md for flags
# (`./benchmark/run.sh -workload serve-repeat -trace 1`, `--twice`, ...).
benchmark:
	./benchmark/run.sh
