#!/usr/bin/env bash
# Builds the RAQO benchmark from source in this checkout and runs it with
# the given arguments, e.g.
#
#   bash raqobench/run.sh --workload serve-tpch --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the traced runs' span files all live
# under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Build caches and temporary files stay in the checkout; a pure-Go build
# needs no C toolchain, and nothing is fetched.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd "$root/raqobench" && go build -o "$out/raqobench" .)
cd "$root"
exec "$out/raqobench" "$@"
