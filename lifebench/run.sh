#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash lifebench/run.sh --workload lifecycle --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# traced run's span dumps go under .bench_build/ (CARGO_TARGET_DIR when
# set); nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/lifebench/go.mod" ]]; then
	echo "lifebench: run from the repository root (go.mod and lifebench/go.mod are needed)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTELEMETRY=off
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

(cd "$root/lifebench" && go build -o "$out/lifebench" .)
exec "$out/lifebench" --spans-dir "$out/spans" "$@"
