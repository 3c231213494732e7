#!/usr/bin/env bash
# Builds the layer-ladder benchmark from the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash layerbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache, temporary files and binary live under
# .bench_build at the checkout root, so nothing is read from or written to
# outside it beyond the Go toolchain itself.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOENV=off
export GOPROXY=off
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
# Keeps the toolchain's own telemetry and config files inside the checkout.
export XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/layerbench" .)
exec "$out/layerbench" "$@"
