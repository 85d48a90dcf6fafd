# Development entry points. `make check` is the tier-1 gate every PR must
# keep green (see ROADMAP.md).

GO ?= go

.PHONY: check lint fmt vet build test race benchcheck benchsmoke fuzz smoke bench benchmark

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

# The fine-grain benchmarks of the root bench_test.go (one CG solve per
# backend and worker count, the same driver at widths 1, 4 and 8, and the
# empty-task executor replay), its kernel benchmarks (the IC(0)
# substitution pair against its CSR oracle, the dense kernels at LOBPCG's
# shapes, whole-matrix SpMM on both sparse formats at widths 1–8, the
# Rayleigh–Ritz eigensolve) and the inline submission through router and
# shard, one iteration each, so they cannot rot.
benchsmoke:
	$(GO) test -run '^$$' -bench 'FineGrain|KrylovWidths|ExecutorTask|TrsvPair|GemmShapes|SpMMWidths|SymEig|InlineSubmit' -benchtime 1x .

# Short fuzz session for the MatrixMarket parser (regression seeds always run
# as part of `make test`).
fuzz:
	$(GO) test -fuzz FuzzMatrixMarketRoundTrip -fuzztime 30s ./internal/sparse/

# End-to-end serving smoke: build solverd + loadgen, serve, 10s of load.
smoke:
	./scripts/smoke.sh

# Performance baseline: kernel microbenches (incl. the symmetric-storage
# pairs, roofline-graded against the calibrated triad peak), per-backend
# solver runs, and a short serving-layer load run; updates BENCH_PR9.json
# (baseline preserved, seeded from the BENCH_PR8.json trajectory on first
# run). Not part of `check` — run it when touching hot paths.
bench:
	./scripts/bench.sh

# The repository benchmark (BENCHMARK.json): all four workloads, end-to-end
# metrics with their regression bounds. See benchmark/README.md for flags
# (`./benchmark/run.sh -workload serve-repeat -trace 1`, `--twice`, ...).
benchmark:
	./benchmark/run.sh
