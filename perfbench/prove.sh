#!/usr/bin/env bash
# Runs one workload on several seeds and prints each metric's median and
# its quartile spread (IQR / median), the figures the bounds in
# BENCHMARK.json are set against. Run from the repository root:
#
#   bash perfbench/prove.sh flood-udp 10          # seeds 1..10, 20 s each
#   bash perfbench/prove.sh pif-udp 5 20 1        # traced, seeds 1..5
set -euo pipefail

workload=${1:?usage: prove.sh WORKLOAD RUNS [SECONDS] [TRACE]}
runs=${2:?usage: prove.sh WORKLOAD RUNS [SECONDS] [TRACE]}
seconds=${3:-20}
trace=${4:-0}

dir=.bench_build/prove
mkdir -p "$dir"
results="$dir/$workload-trace$trace.jsonl"
: >"$results"
for seed in $(seq 1 "$runs"); do
	bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1 | tee -a "$results"
done
.bench_build/perfbench --spread <"$results"
