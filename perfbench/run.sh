#!/usr/bin/env bash
# Builds the serving-stack benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload serve-hotset --seed 1 --seconds 25 --trace 0
#
# Run from the root of a checkout. Every build and run artefact (Go build
# cache, binary, temporary WAL directories, span files) stays under
# .bench_build in the checkout.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/spans" "$@"
