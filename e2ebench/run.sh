#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash e2ebench/run.sh --workload remote-mix --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artefact and cache stays
# under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off

(cd "$root/e2ebench" && go build -o "$out/aide-e2e" .)
exec "$out/aide-e2e" "$@"
