#!/usr/bin/env bash
# Builds the benchmark runner and the selfheald daemon from this checkout
# (once; rebuilt when a source file is newer than the binary) and runs the
# runner from the checkout root with the caller's arguments. Everything the
# build and the run write stays under .bench_build in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
bin="$build/bin"

export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

stale() {
	[ ! -x "$1" ] || [ -n "$(find "$root" -path "$build" -prune -o \
		\( -name '*.go' -o -name go.mod \) -newer "$1" -print -quit)" ]
}

mkdir -p "$bin"
if stale "$bin/selfheald"; then
	(cd "$root" && go build -o "$bin/selfheald" ./cmd/selfheald)
fi
if stale "$bin/runner"; then
	(cd "$here" && go build -o "$bin/runner" .)
fi

cd "$root"
exec "$bin/runner" -bin "$bin" -work "$build" "$@"
