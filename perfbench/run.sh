#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every build output and cache stays under .bench_build/ there.
#
#   bash perfbench/run.sh --workload tree-overload --seed 7 --seconds 30 --trace 0
set -euo pipefail
bench=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench")
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config"
(cd "$bench" && go build -buildvcs=false -o "$out/bin/perfbench" .)
cd "$root"
exec "$out/bin/perfbench" "$@"
