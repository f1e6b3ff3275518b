#!/usr/bin/env bash
# bench.sh — run the perf-trajectory benchmarks and emit a JSON record.
#
# Usage: scripts/bench.sh [smoke|full] [out.json]
#
#   smoke  one iteration per benchmark (CI: proves the harness works)
#   full   timed runs (default; override duration with BENCHTIME=5s)
#
# The default output path is BENCH_pr9.json in the repo root, the perf
# record for PR 9's population-scale sweeps (N clients on one shared
# bottleneck, streamed through O(1)-memory sketch cells). The checked-in
# BENCH_prN.json files wrap two of these records ("before"/"after" each
# refactor); subsequent PRs append their own BENCH_prN.json by pointing
# the second argument at a new file. The benchmark set includes the
# Jobs=1/2/4/8 engine sweep, and the JSON carries gomaxprocs/num_cpu so
# a 1-core container run (where Jobs>1 cannot show wall-clock speedup)
# is machine-readable.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

mode="${1:-full}"
out="${2:-BENCH_pr9.json}"

args=(-run '^$' -bench 'PageLoad|ScenarioSweep|Engine|Population' -benchmem)
case "$mode" in
smoke) args+=(-benchtime 1x) ;;
full) args+=(-benchtime "${BENCHTIME:-2s}") ;;
*)
	echo "usage: $0 [smoke|full] [out.json]" >&2
	exit 2
	;;
esac

ncpu="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"

txt="$(go test "${args[@]}" .)"
printf '%s\n' "$txt"

printf '%s\n' "$txt" | awk -v mode="$mode" -v ncpu="$ncpu" '
/^Benchmark/ {
	name = $1
	# The -N suffix on benchmark names is GOMAXPROCS for the run; Go
	# omits it entirely when GOMAXPROCS is 1.
	if (match(name, /-[0-9]+$/)) {
		gomaxprocs = substr(name, RSTART + 1)
		sub(/-[0-9]+$/, "", name)
	} else if (gomaxprocs == "") {
		gomaxprocs = 1
	}
	iters = $2
	ns = "null"; bytes = "null"; allocs = "null"
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns = $i
		if ($(i + 1) == "B/op") bytes = $i
		if ($(i + 1) == "allocs/op") allocs = $i
	}
	recs[n++] = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
		name, iters, ns, bytes, allocs)
}
END {
	if (gomaxprocs == "") gomaxprocs = "null"
	printf "{\n  \"mode\": \"%s\",\n  \"gomaxprocs\": %s,\n  \"num_cpu\": %s,\n  \"results\": [\n", mode, gomaxprocs, ncpu
	for (i = 0; i < n; i++) printf "%s%s\n", recs[i], (i < n - 1 ? "," : "")
	printf "  ]\n}\n"
}' >"$out"

echo "wrote $out"
