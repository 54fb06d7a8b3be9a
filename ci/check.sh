#!/usr/bin/env bash
# Pre-merge gate: the full verification matrix for this repo. Run from the
# repository root before merging any change:
#
#   ./ci/check.sh            # everything
#   ./ci/check.sh --fast     # tier-1 only (Release build + ctest, audited)
#
# Matrix:
#   1. default preset  — RelWithDebInfo, REMOS_AUDIT=ON, full ctest
#                        (includes the remos_lint ctest and test_audit)
#   2. perf-smoke      — micro_waterfill --smoke; the deterministic
#                        water-filling round counts must match the pins in
#                        bench/waterfill_rounds.json (tools/check_waterfill.py)
#   2b. query-smoke    — micro_query_scale --smoke; workload shape and the
#                        QueryServer's coalescing counters must match the
#                        pins in bench/query_scale_pins.json, the mutex
#                        rows must recompute every flow/predict query (no
#                        coalesce hits), and the snapshot path must hold
#                        its >=3x throughput edge over that mutex baseline
#                        (tools/check_query_scale.py)
#   2c. rps-smoke      — micro_rps_scale --smoke; fleet shape and the
#                        FleetPredictor/warm-tier counters must match the
#                        pins in bench/rps_scale_pins.json, and the
#                        incremental fit path must hold its >=5x edge over
#                        the full-refit baseline at 100k series
#                        (tools/check_rps_scale.py)
#   2d. lan-smoke      — fig03_lan_scalability; its simulated-seconds table
#                        (Fig 3's modeled collector costs per query size and
#                        cache state) must equal bench/fig03_pins.txt, so
#                        the modeled costs move only on purpose
#   3. sanitize preset — ASan + UBSan, full ctest
#   4. tsan preset     — ThreadSanitizer on the threaded test binaries
#                        (ThreadPool, shared prediction cache, query fleet,
#                        FleetPredictor's pooled refit lanes)
#   5. golden runs     — every golden scenario twice (fresh process each),
#                        exports diffed byte-for-byte; then once under the
#                        tsan preset, diffed against the default-preset run
#                        (determinism must survive both schedulers); the
#                        query transcript gets the same two-build treatment
#   6. remos_lint      — project lint (self-test first), run standalone for
#                        a readable report
#   7. remos_analyze   — whole-project static analysis (lock discipline,
#                        determinism leaks, layer DAG, audit coverage,
#                        concurrency escapes) plus the fail-path corpus;
#                        the --json report is kept as a CI artifact under
#                        build/, diffed per pass against the pinned
#                        tools/analyze/baseline.json, re-run from the tsan
#                        build, and both reports byte-diffed (the analyzer
#                        itself must be deterministic across builds)
#   8. clang-tidy      — `lint` build target (skips itself when clang-tidy
#                        is not installed; see .clang-tidy for the profile)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

step() { printf '\n=== %s ===\n' "$*"; }

step "tier-1: default preset (audited Release) + ctest"
cmake --preset default >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

if [[ "$FAST" == 1 ]]; then
  echo "--fast: skipping sanitize/tsan/lint stages"
  exit 0
fi

step "perf-smoke: deterministic water-filling round counts vs pins"
cmake --build build -j "$JOBS" --target micro_waterfill
./build/bench/micro_waterfill --smoke --out build/BENCH_waterfill_smoke.json
python3 tools/check_waterfill.py --measured build/BENCH_waterfill_smoke.json \
  --pins bench/waterfill_rounds.json

step "query-smoke: coalescing counters, mutex-baseline recompute + speedup vs pins"
cmake --build build -j "$JOBS" --target micro_query_scale
./build/bench/micro_query_scale --smoke --out build/BENCH_query_scale_smoke.json
python3 tools/check_query_scale.py --measured build/BENCH_query_scale_smoke.json \
  --pins bench/query_scale_pins.json

step "rps-smoke: fleet-prediction counters + incremental-fit speedup vs pins"
cmake --build build -j "$JOBS" --target micro_rps_scale
./build/bench/micro_rps_scale --smoke --out build/BENCH_rps_scale_smoke.json
python3 tools/check_rps_scale.py --measured build/BENCH_rps_scale_smoke.json \
  --pins bench/rps_scale_pins.json

step "lan-smoke: Fig 3 simulated-seconds table vs pin"
cmake --build build -j "$JOBS" --target fig03_lan_scalability
./build/bench/fig03_lan_scalability \
  | awk '/^ *nodes /{on=1} NF==0{on=0} on' > build/fig03_table.txt
diff bench/fig03_pins.txt build/fig03_table.txt
echo "Fig 3 table matches bench/fig03_pins.txt"

step "sanitize preset (ASan + UBSan) + ctest"
cmake --preset sanitize >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

step "tsan preset (ThreadSanitizer) on the threaded tests"
cmake --preset tsan >/dev/null
cmake --build build-tsan -j "$JOBS" --target test_concurrency test_sim_thread_pool \
  test_rps_shared_cache test_query_scale test_rps_fleet
# ci/tsan.supp: libstdc++ _Sp_atomic lock-bit false positive (GCC PR101761).
TSAN_OPTIONS="suppressions=$PWD/ci/tsan.supp" \
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'Concurrency|ThreadPool|SharedPredictionCache|QueryScale|FleetPredictor'

step "golden-run determinism: two fresh processes, byte-identical exports"
GOLDEN_TMP="$(mktemp -d)"
trap 'rm -rf "$GOLDEN_TMP"' EXIT
mkdir -p "$GOLDEN_TMP/run1" "$GOLDEN_TMP/run2" "$GOLDEN_TMP/tsan"
REMOS_OBS_EXPORT_DIR="$GOLDEN_TMP/run1" ./build/tests/test_observability \
  --gtest_filter='GoldenRun.*' >/dev/null
REMOS_OBS_EXPORT_DIR="$GOLDEN_TMP/run2" ./build/tests/test_observability \
  --gtest_filter='GoldenRun.*' >/dev/null
diff -r "$GOLDEN_TMP/run1" "$GOLDEN_TMP/run2"
echo "same-build reruns identical"

cmake --build build-tsan -j "$JOBS" --target test_observability
REMOS_OBS_EXPORT_DIR="$GOLDEN_TMP/tsan" ./build-tsan/tests/test_observability \
  --gtest_filter='GoldenRun.*' >/dev/null
diff -r "$GOLDEN_TMP/run1" "$GOLDEN_TMP/tsan"
echo "tsan-build exports identical to default-build exports"

# The query transcript pin is byte-compared inside the test itself, so
# running it from a fresh process in each build proves both rerun
# determinism and that TSan instrumentation didn't perturb the float math
# (both runs equal the pin => equal each other).
./build/tests/test_query_golden >/dev/null
cmake --build build-tsan -j "$JOBS" --target test_query_golden
./build-tsan/tests/test_query_golden >/dev/null
echo "query transcript identical across fresh default-build and tsan-build runs"

step "remos_lint"
python3 tools/remos_lint.py --self-test
python3 tools/remos_lint.py --root .

step "remos_analyze: static analysis + hot-path inventory ratchet + fail-path corpus"
cmake --build build -j "$JOBS" --target remos_analyze
./build/tools/analyze/remos_analyze --root . --json > build/remos_analyze.json \
  || { cat build/remos_analyze.json; exit 1; }
./build/tools/analyze/remos_analyze --root .
python3 tools/check_analyze_baseline.py --report build/remos_analyze.json \
  --baseline tools/analyze/baseline.json
python3 tests/analyze_corpus/run_corpus.py \
  --analyzer ./build/tools/analyze/remos_analyze --corpus tests/analyze_corpus

step "remos_analyze determinism: tsan-build run, byte-identical report"
cmake --build build-tsan -j "$JOBS" --target remos_analyze
./build-tsan/tools/analyze/remos_analyze --root . --json \
  > build-tsan/remos_analyze.json \
  || { cat build-tsan/remos_analyze.json; exit 1; }
diff build/remos_analyze.json build-tsan/remos_analyze.json
echo "tsan-build analyzer report identical to default-build report"

step "clang-tidy (lint target; no-op when clang-tidy is absent)"
cmake --build build --target lint

echo
echo "ci/check.sh: all stages passed"
