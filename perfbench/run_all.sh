#!/bin/sh
# Run every workload, timed and then traced, from the root of a source checkout:
#   sh perfbench/run_all.sh [seed] [seconds]
# Each run prints its report and ends with its JSON result line.
set -e
seed=${1:-1}
seconds=${2:-20}
for workload in sweep15 deep_tail roundtrip collapse; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
