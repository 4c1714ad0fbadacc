#!/usr/bin/env bash
# Continuous-integration entry point: configure, build everything (keep
# going on failure so one broken target doesn't hide the rest), then run
# the full test suite. Mirrors the local workflow in README.md.
#
# MGS_SANITIZE=ON reruns the same pipeline in a separate build directory
# with AddressSanitizer + UndefinedBehaviorSanitizer (-DMGS_SANITIZE=ON).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
SANITIZE=${MGS_SANITIZE:-OFF}
if [[ "$SANITIZE" == ON* || "$SANITIZE" == on* || "$SANITIZE" == 1 ]]; then
  BUILD_DIR=${BUILD_DIR}-asan
  EXTRA_FLAGS=(-DMGS_SANITIZE=ON)
  # Sanitized runs: surface every finding, keep UBSan prints readable.
  export ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=1}
  export UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1}
else
  EXTRA_FLAGS=()
fi

if command -v ninja >/dev/null 2>&1; then
  cmake -B "$BUILD_DIR" -S . -G Ninja \
    -DCMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-Release}" "${EXTRA_FLAGS[@]}"
  # ninja: -k 0 = keep going past failures, report them all at the end.
  cmake --build "$BUILD_DIR" -j -- -k 0
else
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-Release}" "${EXTRA_FLAGS[@]}"
  cmake --build "$BUILD_DIR" -j -- -k
fi

# The full suite includes every labelled group (dtype, chaos, faults,
# pipeline, golden) and the modeled-time gates: the `golden` ctest diffs
# every figure point against bench_results/golden_modeled.ndjson, the
# tool_mgs_perf_gate_* ctests diff the traced `mgs_trace --demo` run of
# each gated (dtype, op) cell against its BENCH_baseline*.json (diff JSON
# in $BUILD_DIR/tools/bench_diff*.json), and tool_mgs_perf_diff_straggler
# checks that the gate fails on a seeded 8x straggler and attributes it
# to device 1. Chaos smoke: on a violation the seeded 100-scenario
# campaign (tool_mgs_chaos_smoke) shrinks each failure to a one-line repro
# under $BUILD_DIR/tools/chaos_repro/, which the workflow uploads --
# replay locally with
#   ./$BUILD_DIR/tools/mgs_chaos --replay "<line>"
ctest --test-dir "$BUILD_DIR" --output-on-failure

# Sample observability artifacts (uploaded by the GitHub Actions
# workflow): a traced 4-GPU Scan-MPS run-report + Perfetto trace +
# Prometheus metrics, rendered once to prove the loader works.
"$BUILD_DIR"/tools/mgs_trace --demo --out "$BUILD_DIR/obs_sample"
