#!/usr/bin/env bash
# Same-machine A/B of two revisions with identical benchmark code.
#
#   bash perfbench/ab.sh BASE_REV [PAIRS] [SECONDS] [WORKLOAD...]
#
# Run from the repository root of the change (the "head"). The base
# revision is exported with `git archive` into .bench_build/ab/base and
# given this checkout's perfbench/ and BENCHMARK.json, so both sides run
# the same benchmark. Pair i runs both sides on seed 100+i, alternating
# which side goes first; results are appended to .bench_build/ab/base.jsonl
# and head.jsonl and compared with `perfbench compare`, which exits 1 when
# an end-to-end metric is worse than its bound.
set -euo pipefail
base_rev=${1:?usage: ab.sh BASE_REV [PAIRS] [SECONDS] [WORKLOAD...]}
pairs=${2:-10}
seconds=${3:-20}
shift $(( $# < 3 ? $# : 3 ))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(fig6-sweep study-replay dist-sweep daemon-mixed)
fi

head=$(pwd)
ab="$head/.bench_build/ab"
rm -rf "$ab/base"
mkdir -p "$ab/base"
git archive "$base_rev" | tar -x -C "$ab/base"
rm -rf "$ab/base/perfbench"
cp -R "$head/perfbench" "$head/BENCHMARK.json" "$ab/base/"
rm -f "$ab/base.jsonl" "$ab/head.jsonl"

run() { # side dir workload seed
	( cd "$2" && bash perfbench/run.sh --workload "$3" --seed "$4" --seconds "$seconds" \
		--trace 0 --record "$ab/$1.jsonl" >/dev/null )
}

for ((i = 0; i < pairs; i++)); do
	seed=$((100 + i))
	for w in "${workloads[@]}"; do
		if ((i % 2 == 0)); then
			run base "$ab/base" "$w" "$seed"
			run head "$head" "$w" "$seed"
		else
			run head "$head" "$w" "$seed"
			run base "$ab/base" "$w" "$seed"
		fi
		echo "pair $i $w done" >&2
	done
done
"$head/.bench_build/bin/perfbench" compare -bench "$head/BENCHMARK.json" "$ab/base.jsonl" "$ab/head.jsonl"
