#!/usr/bin/env bash
# Builds cmd/nvkv and the benchmark from source, then runs one workload.
# Everything it writes (Go build cache, binaries, heap files, span files)
# goes under .bench_build/ at the root of the checkout.
#
#   bash benchmark/run.sh --workload kv-churn --seed 1 --seconds 12 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp" "$build/work"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local

# Compile time is printed on its own line and is no part of setup_s.
start=$(date +%s%N)
go build -o "$build/bin/nvkv" ./cmd/nvkv
go -C benchmark build -o "$build/bin/benchmark" .
echo "compile_ms $(( ($(date +%s%N) - start) / 1000000 ))"

exec "$build/bin/benchmark" -nvkv "$build/bin/nvkv" -work-dir "$build/work" \
	-trace-out "$build/work/spans.json" "$@"
