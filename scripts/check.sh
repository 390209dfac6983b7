#!/usr/bin/env bash
# The whole static + dynamic analysis gate in one command:
#
#   1. bhpo_lint        repo invariants (determinism primitives, unordered
#                       iteration in score paths, [[nodiscard]] Status,
#                       raw new/delete/std::thread, x86 intrinsics headers
#                       outside the AVX2 kernels) over src/ bench/ tests/
#   2. tier-1           Release build with -Werror (BHPO_WERROR) + full
#                       ctest
#   3. clang-tidy       bugprone-*/concurrency-*/performance-* profile
#                       (skipped with a note when clang-tidy is not installed)
#   4. ASan+UBSan       cache + thread-pool + gather/layout suites, the
#                       tree lock digests, the optimizer suites
#                       (SHA/Hyperband family, ASHA, PASHA, SMAC, TPE,
#                       golden outcome lock), the model-construction
#                       lock, and the
#                       matrix-product kernel + MLP bit-exactness suites
#                       under both SIMD dispatch variants
#   5. TSan             ThreadPool / fold-parallel CV / EvalCache suites,
#                       fold-parallel tree CV, concurrent tree-index builds
#                       on one fresh dataset, tree-parallel forest/GBDT
#                       fits, a pooled tree search and the contended stress
#                       test under -fsanitize=thread
#   6. faults           (--faults) the fault-tolerance suites plus the
#                       FaultSmoke strategies re-run under a 30% mixed-fault
#                       BHPO_FAULT storm — every bandit must finish and
#                       report honest fault counters
#
# Usage: scripts/check.sh [--fast] [--skip-asan] [--skip-tsan] [--faults]
#   --fast       lint + tier-1 only (skips every sanitizer rebuild and tidy)
#   --skip-asan  skip the ASan pass
#   --skip-tsan  skip the TSan pass
#   --faults     also run the dedicated fault-injection pass. Only the
#                fault-designed suites run under BHPO_FAULT: injecting into
#                the whole tier-1 run would (by design) break its bit-exact
#                determinism assertions.
set -euo pipefail
cd "$(dirname "$0")/.."

run_asan=1
run_tsan=1
run_tidy=1
run_faults=0
for arg in "$@"; do
  case "$arg" in
    --fast) run_asan=0; run_tsan=0; run_tidy=0 ;;
    --skip-asan) run_asan=0 ;;
    --skip-tsan) run_tsan=0 ;;
    --faults) run_faults=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 4)"

echo "== lint: bhpo_lint over src/ bench/ tests/ =="
# The tier-1 build below treats every warning as an error.
cmake --preset default -DBHPO_WERROR=ON >/dev/null
cmake --build build -j"$jobs" --target bhpo_lint
./build/tools/bhpo_lint src/ bench/ tests/

echo "== tier-1: build (Release, -Werror) + ctest =="
cmake --build build -j"$jobs"
ctest --test-dir build --output-on-failure

if [[ "$run_tidy" == 1 ]]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy: bugprone/concurrency/performance profile =="
    cmake --preset default -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    # Lint the library sources; headers ride along via HeaderFilterRegex.
    find src tools -name '*.cc' -print0 |
      xargs -0 clang-tidy -p build --quiet
  else
    echo "== clang-tidy not found; skipping (install it or use the tidy preset) =="
  fi
fi

if [[ "$run_asan" == 1 ]]; then
  echo "== ASan+UBSan: cache + thread-pool + gather + tree + optimizer + MLP kernel suites =="
  cmake --preset asan >/dev/null
  cmake --build build-asan -j"$jobs" \
    --target bhpo_hpo_test bhpo_common_test bhpo_data_test bhpo_ml_test \
             bhpo_stress_test

  ./build-asan/tests/bhpo_hpo_test \
    --gtest_filter='EvalCache*:CachingStrategy*:FoldCache*:CacheTransparency*'
  # Every optimizer on the shared evaluate-and-record path; the promotion
  # scheduler promotes out of one per-rung vector into the next. The
  # model-construction lock fits and scores the final and fold models of
  # every model family. The tree-search and final-fit suites grow forests
  # and GBDTs on a pool shared with configurations and folds.
  ./build-asan/tests/bhpo_hpo_test \
    --gtest_filter='Sha*:Asha*:Pasha*:Hyperband*:Bohb*:Dehb*:Smac*:TpeSearch*:TpeSampler*:OptimizerGolden*:ModelConstructionLock*:TreeCashSearch*:FinalFitPool*'
  ./build-asan/tests/bhpo_common_test --gtest_filter='*ThreadPool*'
  # Gather kernel under ASan, both dispatch variants: the edge-width/
  # misalignment suite flips the runtime toggle itself, and the second run
  # pins the portable path via the env kill switch.
  ./build-asan/tests/bhpo_common_test \
    --gtest_filter='Gather*:MatrixSelectRowsGather*'
  BHPO_SIMD=off ./build-asan/tests/bhpo_common_test \
    --gtest_filter='Gather*:MatrixSelectRowsGather*'
  ./build-asan/tests/bhpo_data_test --gtest_filter='GatherBitExact*:FeatureOrder*'
  # The tree lock digests (serial and on pools of 1, 2 and 8 workers), the
  # repeated-id walk, the node-order oracle and the kept-order partition
  # oracle (TreeBitExactPartition*): the walk stores 4 ids at a time into
  # the slack of the sorted-ids and kept-order buffers. The index
  # oracle and the concurrent builds walk the parent dataset's order
  # through a per-fit row map. The tree loaders reject the malformed models
  # that read out of bounds. The prediction-path suite walks every model
  # over full and subset views.
  ./build-asan/tests/bhpo_ml_test \
    --gtest_filter='TreeLayoutBitExact*:TreeBitExact*:SortedColumns*:ParentOrderConcurrency*:NodeOrder*:NonFiniteFeature*:*Serialization*:PredictionPath*'
  # Matrix-product kernels and the MLP training lock, both dispatch
  # variants: the register tiles' row and column tails are exactly where an
  # out-of-bounds load or store would hide. The kernel suite also flips the
  # runtime toggle itself; the second run pins the portable path.
  ./build-asan/tests/bhpo_common_test --gtest_filter='MatrixKernel*'
  BHPO_SIMD=off ./build-asan/tests/bhpo_common_test \
    --gtest_filter='MatrixKernel*'
  ./build-asan/tests/bhpo_ml_test --gtest_filter='MlpBitExact*:Lbfgs*'
  BHPO_SIMD=off ./build-asan/tests/bhpo_ml_test \
    --gtest_filter='MlpBitExact*'
  ./build-asan/tests/bhpo_stress_test
else
  echo "== ASan pass skipped =="
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "== TSan: thread-pool + fold-parallel CV + eval-cache + tree CV + stress =="
  cmake --preset tsan >/dev/null
  cmake --build build-tsan -j"$jobs" \
    --target bhpo_common_test bhpo_cv_test bhpo_hpo_test bhpo_ml_test \
             bhpo_stress_test
  ctest --test-dir build-tsan --output-on-failure \
    -R 'bhpo_tsan_(thread_pool|cv_parallel|eval_cache|tree_cv|tree_search|stress)'
else
  echo "== TSan pass skipped =="
fi

if [[ "$run_faults" == 1 ]]; then
  echo "== faults: registry/guard/smoke suites + 30% mixed-fault storm =="
  cmake --build build -j"$jobs" \
    --target bhpo_fault_test bhpo_hpo_test bhpo_integration_test
  # Clean run first: the same binaries assert all-zero fault counters when
  # BHPO_FAULT is unset.
  ./build/tests/bhpo_fault_test
  ./build/tests/bhpo_hpo_test --gtest_filter='Checkpoint*:EvalCacheFailure*'
  ./build/tests/bhpo_integration_test --gtest_filter='CheckpointResume*'
  # The storm: every strategy completes under a 30% mixed-fault profile on
  # the global injector and reports non-zero fault counters.
  BHPO_FAULT='rate=0.3,seed=7' \
    ./build/tests/bhpo_fault_test --gtest_filter='FaultSmoke*'
else
  echo "== fault-injection pass skipped (enable with --faults) =="
fi

echo "All checks passed."
