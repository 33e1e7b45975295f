#!/usr/bin/env bash
# Builds and runs the dnsnoise benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload day-live --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under the checkout's build
# directory ($CARGO_TARGET_DIR, default .bench_build): the Go build cache,
# the binary, the replay trace, spans and per-run result files.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/perfbench-bin" .)
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
PERFBENCH_COMMIT="$commit" exec "$out/perfbench-bin" -root "$root" -out "$out/perfbench" "$@"
