#!/usr/bin/env bash
# Builds perfbench from this checkout's source and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload backup-net --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write — the binary, the Go build cache, Go's own config and temporary
# files, the workloads' stores — stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
(
	cd "$root/perfbench"
	export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
		GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
	go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
