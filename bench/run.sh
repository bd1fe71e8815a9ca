#!/usr/bin/env bash
# Builds panoptes-bench from source and runs it with the given arguments.
# Run from the repository root: bash bench/run.sh -workload crawl -seconds 20
#
# Everything the build and the runs write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, temporary sink output
# and traced-run artifacts. No network is used (GOPROXY=off,
# GOTOOLCHAIN=local); the bench module has no dependencies beyond the
# repository itself.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$bench_dir" && go build -o "$out/panoptes-bench" ./cmd/panoptes-bench)
exec "$out/panoptes-bench" -artifacts "$out/artifacts" -tmp "$out/tmp" "$@"
