#!/bin/sh
# Static-analysis gate: gofmt, go vet, and sparselint (the repo-specific
# analyzers in internal/lint). Run from the repo root; `make lint` and
# `make check` call this. Exits nonzero on the first failing stage.
#
# The sparselint stage writes its machine-readable report (the versioned
# lint.Report schema) to lint-report.json and prints a per-analyzer summary
# of finding counts and wall time.
set -eu

cd "$(dirname "$0")/.."

echo "lint: gofmt"
out="$(gofmt -l .)"
if [ -n "$out" ]; then
    echo "gofmt needed on:"
    echo "$out"
    exit 1
fi

echo "lint: go vet"
go vet ./...

# The amd64 build runs assembly kernel bodies; another architecture compiles
# only their Go bodies. Vetting one keeps that build type-checked.
echo "lint: go vet, GOARCH=arm64"
GOARCH=arm64 go vet ./...

# The serving binaries solve and tune on a flat executor; the simulator, the
# machine descriptions it models locality with (machine, and the topo stub the
# benchmark module still names), and the experiment harness behind the
# paper's figures stay out of them.
echo "lint: serving binaries do not link the simulator"
deps="$(go list -deps ./cmd/solverd ./cmd/solverfront)"
for pkg in sim cachesim bench perfprofile topo machine; do
    if printf '%s\n' "$deps" | grep -qx "sparsetask/internal/$pkg"; then
        echo "cmd/solverd or cmd/solverfront links internal/$pkg"
        exit 1
    fi
done

echo "lint: sparselint"
status=0
go run ./cmd/sparselint -json ./... > lint-report.json || status=$?

# Per-analyzer summary from the report artifact. The JSON is emitted by our
# own encoder with a fixed field order (name, findings, wall_ms), so a
# line-oriented awk pass is enough — no JSON tooling required.
awk '
    /"name":/     { gsub(/[",]/, "", $2); name = $2 }
    /"findings":/ { gsub(/,/, "", $2); n = $2 }
    /"wall_ms":/  { gsub(/,/, "", $2); printf "  %-14s %3d finding(s)  %8.1f ms\n", name, n, $2
                    if ($2 + 0 > slow_ms + 0) { slow_ms = $2; slow = name } }
    /"total":/    { gsub(/,/, "", $2); total = $2 }
    END           { printf "  %-14s %3d finding(s)  (report: lint-report.json)\n", "total", total
                    if (slow != "") printf "  slowest analyzer: %s (%.1f ms)\n", slow, slow_ms }
' lint-report.json

if [ "$status" -ne 0 ]; then
    echo "lint: sparselint findings (see lint-report.json)"
    exit "$status"
fi
