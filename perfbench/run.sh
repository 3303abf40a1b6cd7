#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build writes (the Go
# build cache, temporary files and the binary) stays under .bench_build/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

# The build runs in the background so a TERM or INT arriving mid-build
# stops the compiler too instead of orphaning it.
pid=
trap '[ -n "$pid" ] && kill -TERM "$pid" 2>/dev/null; [ -n "$pid" ] && wait "$pid"; exit 143' TERM INT
go -C perfbench build -o "$out/perfbench" . &
pid=$!
wait "$pid"
trap - TERM INT

# Traced runs write their spans next to the binary; a --spans given on
# the command line comes later and wins.
exec "$out/perfbench" --spans "$out/spans.jsonl" "$@"
