#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-steady --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary live under .bench_build/ in the current directory, and the build
# never reaches the network. The directory also keeps the first simulated
# metrics of each (binary, workload, seed), which later runs must reproduce.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off

bin=$out/perfbench
go -C "$root/perfbench" build -o "$bin.$$" . || { rm -f "$bin.$$"; exit 1; }
mv -f "$bin.$$" "$bin"
exec "$bin" -simref "$out/simref" "$@"
