#!/usr/bin/env bash
# Runs the benchmark once per seed on each workload and appends every
# run's output to a file, the input of `run.sh agree`. Run it from the
# repository root:
#
#   bash perfbench/repeat.sh runs-a.jsonl 1 10              # seeds 1-10, every workload
#   bash perfbench/repeat.sh runs-b.jsonl 1 10 sweep faults
#
# Run length comes from BENCHMARK.json's run_seconds.
set -euo pipefail

if [[ $# -lt 3 ]]; then
	echo "usage: bash perfbench/repeat.sh OUT FIRST_SEED COUNT [WORKLOAD...]" >&2
	exit 2
fi
out=$1 first=$2 count=$3
shift 3
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
	workloads=(sweep popular population faults)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

for w in "${workloads[@]}"; do
	for ((s = first; s < first + count; s++)); do
		bash perfbench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 >>"$out"
	done
done
