#!/usr/bin/env bash
# Builds the repository benchmark and the serving daemon from source into
# .bench_build/ at the root of the checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload serve-closed --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/metis-serve" ]]; then
	echo "perfbench: run from the root of a checkout of the repository (go.mod and cmd/metis-serve not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gopath" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=
# The go command keeps telemetry counters under the user's config directory.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
# Otherwise each go command may fork a telemetry upload process that outlives
# it; "go telemetry off" itself starts none.
go telemetry off

go build -o "$build/bin/metis-serve" ./cmd/metis-serve
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" "$@"
