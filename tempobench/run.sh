#!/usr/bin/env bash
# Builds tempod and the benchmark from the checkout in the current
# directory, then runs one benchmark pass:
#
#   bash tempobench/run.sh --workload check --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write lands under .bench_build/ (the Go
# build cache included), so the checkout is the only place touched.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/tempod" ]; then
	echo "tempobench: run from the repository root (no go.mod or cmd/tempod in $root)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -buildvcs=false -o "$build/bin/tempod" ./cmd/tempod
(cd "$root/tempobench" && go build -buildvcs=false -o "$build/bin/tempobench" .)
exec "$build/bin/tempobench" -root "$root" -bin "$build/bin" "$@"
