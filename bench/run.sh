#!/usr/bin/env bash
# Builds the benchmark from the sources in the current checkout and runs it,
# passing every argument through. Run it from the repository root:
#
#   bash bench/run.sh --workload fig6_medium --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1 -out results.json      # every workload
#   bash bench/run.sh compare base/ change/          # regression report
#
# The binary, the Go build cache, temporary files and the go command's own
# state (its telemetry counters live under XDG_CONFIG_HOME) stay under
# $CARGO_TARGET_DIR (default .bench_build) in the working directory. Module
# downloads and toolchain switches are disabled: the module has no
# dependencies beyond the repository itself.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS="-mod=mod -buildvcs=false" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOENV=off GOWORK=off CGO_ENABLED=0

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
