#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it. Run it
# from the repository root; every argument is passed on to the benchmark:
#
#   bash perfbench/run.sh --workload popular --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh agree runs-a.jsonl runs-b.jsonl
#
# Everything the build writes (Go build cache, binary, profiles) stays
# under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/core and perfbench/ are required)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	PPROF_TMPDIR="$out/pprof" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
rev=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
(cd "$root/perfbench" && go build -buildvcs=false -ldflags "-X main.gitRev=$rev" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
