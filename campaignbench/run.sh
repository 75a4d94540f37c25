#!/usr/bin/env bash
# Builds the campaign benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash campaignbench/run.sh --workload oneshot-campaign --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache and trace files stay in .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/campaignbench"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/campaignbench" && go build -o "$out/campaignbench" .)
exec "$out/campaignbench" "$@"
