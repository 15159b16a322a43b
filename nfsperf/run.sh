#!/usr/bin/env bash
# Builds the nfsperf benchmark from the checkout it runs in and executes it
# with the given arguments. Run from the repository root:
#
#	bash nfsperf/run.sh --workload meta-light --seed 1 --seconds 10 --trace 0
#
# Every build artefact (Go build cache, temp files, the binary) and every
# output file stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# No user-level Go configuration or telemetry: nothing is read or written
# outside the checkout.
export GOENV=off GOTELEMETRY=off
(cd "$root/nfsperf" && go build -buildvcs=false -o "$out/nfsperf" .) >&2
# The host envelope names the revision when the checkout is a git work
# tree; the ceiling keeps git from searching above the checkout.
NFSPERF_GIT_REV=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unavailable)
export NFSPERF_GIT_REV
exec "$out/nfsperf" "$@"
