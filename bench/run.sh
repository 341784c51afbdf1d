#!/usr/bin/env bash
# Builds mlbench and the mlckptd daemon from this checkout, then runs
# mlbench with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload campaign-heavy --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1 -out .bench_build/results/a1   # every workload
#   bash bench/run.sh compare -base .bench_build/results/a* -head .bench_build/results/b*
#
# Every file the build and the run write (Go build cache, binaries,
# temporary files) stays under .bench_build/ in the repository root.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/mlckptd ]; then
    echo "bench/run.sh: run it from the repository root" >&2
    exit 1
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
    GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
    GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go build -o "$out/mlckptd" ./cmd/mlckptd
(cd bench && go build -o "$out/mlbench" ./cmd/mlbench)
exec "$out/mlbench" "$@"
