# Development entry points. `make check` is the tier-1 gate every PR must
# keep green (see ROADMAP.md).

GO ?= go

.PHONY: check lint fmt vet build test race benchcheck benchsmoke fuzz smoke benchmark

check: build lint test race benchcheck benchsmoke

# Static analysis: gofmt, go vet, and sparselint (internal/lint — the
# repo-specific hot-path/locking/ownership/ctx/determinism analyzers).
lint:
	./scripts/lint.sh

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The serving layer, scheduler, runtime backends, graph builder, solver
# drivers, preconditioner, and topology layer are the concurrency hot spots;
# they must also pass under the race detector (the hierarchical steal paths
# in sched and rt, and the level-scheduled triangular wavefronts, especially).
# sparse is here for one guarantee the engine leans on: conversions of an
# already compact COO only read it, so concurrent jobs may share one.
race:
	$(GO) test -race ./internal/server/... ./internal/route/... ./internal/sparse/... ./internal/sched/... ./internal/graph/... ./internal/rt/... ./internal/solver/... ./internal/precond/... ./internal/topo/... ./internal/roofline/...

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

# Short fuzz session for the MatrixMarket parser (regression seeds always run
# as part of `make test`).
fuzz:
	$(GO) test -fuzz FuzzMatrixMarketRoundTrip -fuzztime 30s ./internal/sparse/

# End-to-end serving smoke: build solverd + loadgen, serve, 10s of load.
smoke:
	./scripts/smoke.sh

# The repository benchmark (BENCHMARK.json): all four workloads, end-to-end
# metrics with their regression bounds. See benchmark/README.md for flags
# (`./benchmark/run.sh -workload serve-repeat -trace 1`, `--twice`, ...).
benchmark:
	./benchmark/run.sh
