#!/usr/bin/env bash
# Builds the cruzperf benchmark from the checkout's sources and runs it,
# passing every argument through:
#
#   bash cruzperf/run.sh --workload svc --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the traced runs' CPU profiles all stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f cruz.go ]; then
	echo "cruzperf: run from the repository root (no go.mod / cruz.go here)" >&2
	exit 1
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/home" "$build/tmp" "$build/profiles"

export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

go build -o "$build/cruzperf" ./cruzperf
exec "$build/cruzperf" --profiles "$build/profiles" "$@"
