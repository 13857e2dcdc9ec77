#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload dns-campus --seed 1 --seconds 10 --trace 0
#
# The build, the Go build cache and the go command's own state stay under
# .bench_build/ in the checkout. Outside a full checkout (no repository
# sources next to perfbench/) the build fails and the script exits
# non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config"
export GOFLAGS="-mod=mod -buildvcs=false" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The revision is recorded with every result; git must not look above the
# checkout for it.
PERFBENCH_REV="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)"
export PERFBENCH_REV
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
