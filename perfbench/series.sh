#!/usr/bin/env bash
# Runs the benchmark over several seeds and collects one result set. Run
# from the repository root:
#
#   bash perfbench/series.sh DIR [SEEDS] [WORKLOADS] [TRACE] [SECONDS]
#
# SEEDS defaults to "1 2 3 4 5 6 7 8 9 10", WORKLOADS to all three, TRACE
# to 0 and SECONDS to the run_seconds of BENCHMARK.json. Each run's record
# lands in DIR/runs/; `python3 perfbench/compare.py PARENT_DIR CHANGE_DIR`
# compares two such sets. The script stops at the first failing run.
set -euo pipefail

out=${1:?usage: series.sh DIR [SEEDS] [WORKLOADS] [TRACE] [SECONDS]}
seeds=${2:-1 2 3 4 5 6 7 8 9 10}
workloads=${3:-memo-hot fresh-deep session-journal}
trace=${4:-0}
seconds=${5:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}

for workload in $workloads; do
    for seed in $seeds; do
        bash perfbench/run.sh --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" --out "$out" | tail -n 1
    done
done
