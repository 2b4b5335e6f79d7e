#!/usr/bin/env bash
# Builds dsload from the checkout it sits in and runs it with the given
# arguments, e.g.
#
#	bash bench/run.sh --workload run-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build keeps its cache, temporary
# files and binary under .bench_build/ so that nothing outside the checkout
# is read from or written to besides the Go toolchain itself; the first run
# in a fresh checkout compiles the standard library and takes longer.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/gopath"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOENV=off
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/bench" && go build -o "$out/dsload" ./dsload)
exec "$out/dsload" "$@"
