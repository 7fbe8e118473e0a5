#!/usr/bin/env bash
# Builds the benchmark and the cmd/serve binary it drives, then runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload kernel-b37 --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build in the current
# directory: binaries, the Go build cache and trace files.
set -euo pipefail
bench="$(cd "$(dirname "$0")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(
	cd "$bench"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/serve" repro/cmd/serve
) >&2
exec "$out/bin/perfbench" --serve-bin "$out/bin/serve" --out "$out" "$@"
