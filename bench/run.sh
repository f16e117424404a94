#!/usr/bin/env bash
# Entry point of the benchmark (see ../BENCHMARK.json): builds vqebench from
# this directory's own module, inside the checkout, and runs it with the
# arguments given. vqebench in turn builds cmd/vqed from the checkout.
#
#   bash bench/run.sh --workload serve_mix --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1            # every workload; see bench/README.md
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp"
# Everything the Go toolchain writes stays inside the checkout, and nothing
# is fetched: both modules depend on the standard library alone.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOPROXY=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bin/vqebench" ./vqebench)
cd "$root"
exec "$build/bin/vqebench" "$@"
