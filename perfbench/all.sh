#!/bin/sh
# Every workload, end-to-end (--trace 0) then per-layer (--trace 1).
# Run from the root of a checkout: sh perfbench/all.sh [seed] [seconds]
set -e
for workload in verify-sweep sweep-traces eval-cold; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" --seconds "${2:-25}" --trace "$trace"
    done
done
