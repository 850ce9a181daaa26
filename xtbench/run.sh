#!/usr/bin/env bash
# Builds the xtbench benchmark from this checkout's sources and runs it with
# the given arguments, from the root of the checkout:
#
#   bash xtbench/run.sh --workload chip-stream --seed 1999 --seconds 10 --trace 0
#
# The Go build cache and temporary files, the binary, the generated inputs and
# the span files all live under .bench_build/ in the current directory.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off
(cd "$here" && go build -o "$out/bin/xtbench" .)
exec "$out/bin/xtbench" "$@"
