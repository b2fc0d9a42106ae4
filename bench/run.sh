#!/usr/bin/env bash
# Builds bench/cmd/agilebench and runs it with the given arguments. Run it
# from the root of a checkout:
#
#   bash bench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# temporary files) stays under .bench_build/ in the checkout. The build
# never touches the network: the module has no dependency outside the
# checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/agilebench" ./cmd/agilebench)
exec "$out/agilebench" "$@"
