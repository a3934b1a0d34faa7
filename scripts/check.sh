#!/usr/bin/env bash
# One-command local CI for the PQS simulator — the gate every PR must
# pass. Mirrors what reviewers will run:
#
#   1. warnings-as-errors build (-Wall -Wextra -Wshadow -Wconversion)
#      and the full ctest suite, which includes the project analyzer
#      (pqs_lint: line rules + whole-project flow rules with an
#      incremental cache), its JSON schema gate (pqs_lint_json_schema),
#      its fixture self-test (test_lint_fixtures), its unit tests
#      (pqs_lint_unittests), and the bench JSON gates of
#      scripts/check_bench_json.py on every committed BENCH_*.json and
#      every `bench_*_smoke` emission (<bench>_baseline_json,
#      <bench>_smoke_json)
#   2. project analyzer rerun for a readable report
#   3. trace JSON schema gate: a fresh `trace_demo --smoke` emission must
#      satisfy scripts/check_trace_json.py (chrome://tracing-loadable,
#      with a lookup span nesting packet-hop events)
#   4. ASan+UBSan build with the debug invariant layer forced on
#      (PQS_DCHECKS=ON) and the test suite rerun under it
#   5. clang-format --dry-run gate (soft-skipped if clang-format is
#      not installed; same for the optional clang-tidy build)
#
# Usage: scripts/check.sh [--with-tidy]
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$PWD
JOBS=$(nproc 2>/dev/null || echo 2)
WITH_TIDY=0
[[ "${1:-}" == "--with-tidy" ]] && WITH_TIDY=1

step() { printf '\n== %s ==\n' "$*"; }

step "1/5 warnings-as-errors build + tests (build-check)"
cmake -B build-check -S "$ROOT" -DPQS_WERROR=ON >/dev/null
cmake --build build-check -j "$JOBS"
ctest --test-dir build-check --output-on-failure -j "$JOBS"

step "2/5 project analyzer (standalone rerun for a readable report)"
# Reuses the incremental cache the ctest run above populated, prints
# per-rule wall time, and validates the JSON report against pqs_lint/1.
python3 tools/pqs_lint/pqs_lint.py --root "$ROOT" --timings \
    --cache-file build-check/pqs_lint_cache.json \
    --json-out build-check/pqs_lint_report.json
python3 scripts/check_lint_json.py build-check/pqs_lint_report.json
python3 tools/pqs_lint/check_fixtures.py --root "$ROOT"
python3 tools/pqs_lint/test_pqs_lint.py

step "3/5 trace JSON schema gate (fresh trace_demo --smoke emission)"
build-check/examples/trace_demo --smoke --out build-check/trace_smoke
python3 scripts/check_trace_json.py build-check/trace_smoke_seed12345.json

step "4/5 ASan+UBSan build with PQS_DCHECKS=ON (build-asan)"
cmake -B build-asan -S "$ROOT" -DPQS_WERROR=ON \
      -DPQS_SANITIZE=address,undefined -DPQS_DCHECKS=ON >/dev/null
cmake --build build-asan -j "$JOBS"
# halt_on_error so UBSan findings fail the run instead of scrolling by.
UBSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"

step "5/5 formatting / tidy gates"
if command -v clang-format >/dev/null 2>&1; then
    find src bench tests examples -name '*.cpp' -o -name '*.h' \
        | xargs clang-format --dry-run -Werror
    echo "clang-format: clean"
else
    echo "clang-format not installed — skipping the format gate"
fi
if [[ "$WITH_TIDY" == 1 ]]; then
    if command -v clang-tidy >/dev/null 2>&1; then
        cmake -B build-tidy -S "$ROOT" -DPQS_CLANG_TIDY=ON >/dev/null
        cmake --build build-tidy -j "$JOBS"
    else
        echo "clang-tidy not installed — skipping the tidy build"
    fi
fi

printf '\nAll checks passed.\n'
