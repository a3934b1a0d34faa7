#!/usr/bin/env bash
# Regenerates the perf baselines at the repo root:
#   BENCH_kernel.json    — kernel micro/e2e benches (pqs.bench_kernel/1)
#   BENCH_scale.json     — n=100k live-churn scale bench (pqs.bench_scale/1)
#   BENCH_byzantine.json — b-masking failure-rate sweep vs the closed-form
#                          bound + the end-to-end adversary scenario
#                          (pqs.bench_byzantine/1)
#   BENCH_frontier.json  — workload-aware quorum sizing vs the symmetric
#                          default: analytic Lemma 5.6 frontier + measured
#                          KV service traffic (pqs.bench_frontier/1)
#   BENCH_energy.json    — duty-cycle/lease Monte-Carlo vs the closed-form
#                          timed-quorum bound + end-to-end energy sweep
#                          (joules/lookup, network lifetime)
#                          (pqs.bench_energy/1)
# Run it on the machine whose numbers you want to record (the committed
# baselines come from a 4-core container), then commit the refreshed
# files together with a README "Performance" note when the numbers move
# materially.
#
#   scripts/bench.sh          # full workloads (bench_scale at n=100k)
#   scripts/bench.sh smoke    # shrunk workloads (same as the ctest gates)
#
# The emitted JSON is checked here by scripts/check_bench_json.py, and
# again by the <bench>_baseline_json ctests once committed; all
# `counters` fields are deterministic (fixed seeds), so two runs on any
# machine must differ only in wall/rate/RSS fields.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$PWD
JOBS=$(nproc 2>/dev/null || echo 2)
MODE="${1:-full}"

case "$MODE" in
  full) SMOKE="" ;;
  smoke) SMOKE="--smoke" ;;
  *) echo "usage: scripts/bench.sh [full|smoke]" >&2; exit 2 ;;
esac

BENCHES="kernel scale byzantine frontier energy"
cmake -B build -S "$ROOT" >/dev/null
cmake --build build -j "$JOBS" $(printf -- '--target bench_%s ' $BENCHES)
for b in $BENCHES; do
  ./build/bench/bench_$b $SMOKE --out BENCH_$b.json
done

python3 scripts/check_bench_json.py $(printf "BENCH_%s.json " $BENCHES)
