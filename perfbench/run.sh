#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload cnn-infer --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and output stays under .bench_build/ in the
# current directory.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a full EVA checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
