#!/usr/bin/env bash
# Builds the job-level benchmark from source and runs it. Run it from the
# root of a flips checkout:
#
#   bash jobbench/run.sh --workload paper-femnist --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, compiler cache and scratch files, Go's
# config and telemetry files) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/jobbench/go.mod" ]; then
	echo "jobbench: run from the root of a flips checkout (go.mod and jobbench/go.mod are needed)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/jobbench" && go build -o "$out/jobbench" .)
exec "$out/jobbench" "$@"
