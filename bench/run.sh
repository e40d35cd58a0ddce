#!/usr/bin/env bash
# Builds sdbench and runs it from the repository root, passing every
# argument through:
#
#   bash bench/run.sh --workload mine-tree --seed 97 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the toolchain's own state all
# live under .bench_build, so the benchmark reads and writes only inside
# the checkout. Outside a full checkout the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$build/bin/sdbench" .)
exec "$build/bin/sdbench" "$@"
