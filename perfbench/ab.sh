#!/usr/bin/env bash
# Runs interleaved parent/change pairs of the benchmark and compares them.
#
#   bash perfbench/ab.sh PARENT_DIR CHANGE_DIR OUT_DIR RUNS SECONDS [WORKLOAD...]
#
# PARENT_DIR and CHANGE_DIR are checkouts of the two commits, each holding
# this benchmark. Pair i runs seed i on both sides, the parent first when i
# is odd and the change first when it is even. The records go to
# OUT_DIR/parent.jsonl and OUT_DIR/change.jsonl, and the comparator reads
# them against the change's BENCHMARK.json.
set -euo pipefail
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)
runs=$4
secs=$5
shift 5
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(train-testbed sim-hier serve-testbed serve-fleet)
fi
run() {
	(cd "$1" && bash perfbench/run.sh --workload "$2" --seed "$3" --seconds "$secs" --trace 0 --record "$4" >/dev/null)
}
for i in $(seq 1 "$runs"); do
	for w in "${workloads[@]}"; do
		if ((i % 2)); then
			run "$parent" "$w" "$i" "$out/parent.jsonl"
			run "$change" "$w" "$i" "$out/change.jsonl"
		else
			run "$change" "$w" "$i" "$out/change.jsonl"
			run "$parent" "$w" "$i" "$out/parent.jsonl"
		fi
	done
done
cd "$change/perfbench"
go run ./compare -bench ../BENCHMARK.json "$out/parent.jsonl" "$out/change.jsonl"
