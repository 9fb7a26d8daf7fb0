#!/usr/bin/env bash
# Builds dlsd and the benchmark from the checkout's source, then runs the
# benchmark with the arguments given, from the root of the checkout:
#
#   bash perfbench/run.sh --workload chain-hot --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ (or
# $CARGO_TARGET_DIR when set): the Go build cache, the binaries, and the
# traced run's spans. The build needs no network.
set -euo pipefail

[ -f go.mod ] && [ -d cmd/dlsd ] || { echo "run.sh: run from the root of a repository checkout" >&2; exit 1; }
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath GOMODCACHE=$out/gopath/mod
export XDG_CONFIG_HOME=$out/config GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bin/dlsd" ./cmd/dlsd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -dlsd "$out/bin/dlsd" -out "$out" "$@"
