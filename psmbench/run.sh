#!/usr/bin/env bash
# Builds the programs under test (tracegen, psmgen, psmlint, psmd) and the
# psmbench harness from source, then runs the harness. Run it from the
# repository root:
#
#   bash psmbench/run.sh --workload offline-longts --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/
# in the current directory (Go build cache included), so nothing is read
# from or written to the rest of the machine beyond the Go toolchain.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOENV=off
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$out/bin/" \
	psmkit/cmd/tracegen psmkit/cmd/psmgen psmkit/cmd/psmlint psmkit/cmd/psmd .)

exec "$out/bin/psmbench" -bin "$out/bin" -work "$out" "$@"
