#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload console-read --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The build cache, temporary files, the Go
# tool's configuration directory and the binary stay under .bench_build/
# in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
