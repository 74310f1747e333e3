#!/usr/bin/env bash
# perfbench correctness gate: the pinned modelled outcomes, as a
# pass/fail check.
#
#  1. Build the perfbench harness (into .bench_build/, ~40 s cold)
#     and run its order-statistics self-test.
#  2. Run each workload (fleet_week, request_hour, emergency_sweep)
#     at its default seed for a short measuring window, then
#     request_hour once more at the hold-out seed 2718.
#  3. Fail unless the run's last line, a JSON object, reports
#     "correct": true. That covers the final ClusterSim::stateDigest
#     matching its pin in perfbench/expected.json (default seeds
#     only), repeatable exact counts, and every BENCHMARK.json metric
#     present and finite.
#
# perfbench/run.py exits 0 even when a check fails (it reports; the
# caller judges), so this wrapper is what turns the digest pins into
# a gate. Timings are not gated here: shared hosts are too noisy.
#
# Usage: scripts/perfbench_gate.sh [seconds]   (default: 2)
set -euo pipefail

cd "$(dirname "$0")/.."

seconds="${1:-2}"

python3 perfbench/run.py --self-test

# gate WORKLOAD [run.py args...]: one run that must report correct.
gate() {
    local workload="$1"
    shift
    local out summary
    out=$(python3 perfbench/run.py --workload "$workload" \
        --seconds "$seconds" "$@")
    summary=$(printf '%s\n' "$out" | grep '^# ' || true)
    if ! printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
sys.exit(0 if json.loads(sys.stdin.read())["correct"] is True else 1)'
    then
        printf '%s\n' "$summary" >&2
        echo "FAIL: perfbench $workload $* did not report correct=true" >&2
        exit 1
    fi
    printf '%s\n' "$summary"
}

for workload in fleet_week request_hour emergency_sweep; do
    gate "$workload"
done
# The request-level routing path must also hold off the default seed.
gate request_hour --seed 2718

echo "OK: perfbench self-test, default-seed digests and hold-out run"
