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
# pipeline, golden). Chaos smoke: on a violation the seeded 100-scenario
# campaign (tool_mgs_chaos_smoke) shrinks each failure to a one-line repro
# under $BUILD_DIR/tools/chaos_repro/, which the workflow uploads --
# replay locally with
#   ./$BUILD_DIR/tools/mgs_chaos --replay "<line>"
ctest --test-dir "$BUILD_DIR" --output-on-failure

# Sample observability artifacts (uploaded by the GitHub Actions
# workflow): a traced 4-GPU Scan-MPS run-report + Perfetto trace +
# Prometheus metrics, rendered once to prove the loader works.
"$BUILD_DIR"/tools/mgs_trace --demo --out "$BUILD_DIR/obs_sample"

# Modeled-time gate: trace one representative Scan-MPS run per gated
# (dtype, op) cell and compare it with its committed run-report
# (BENCH_baseline.json for i32/plus, BENCH_baseline_<dtype>_<op>.json
# otherwise). Modeled time is deterministic, so mgs_perf diff exits 1 as
# soon as the makespan or any stage moves by more than 1e-12 relative,
# after printing the ranked attribution table; the diff JSON lands in the
# build tree for artifact upload. An intentional change re-snapshots the
# baseline in the same commit (cp the fresh report over it). The full
# figure grid is gated the same way by the `golden` ctest above. The
# microbenchmark sweep itself is skipped via the filter.
for cfg in "i32 plus" "f64 max" "i64 min"; do
  read -r DT OP <<<"$cfg"
  SUFFIX=""
  [[ "$DT/$OP" != "i32/plus" ]] && SUFFIX="_${DT}_${OP}"
  "$BUILD_DIR"/bench/bench_micro --dtype "$DT" --op "$OP" \
    --trace "bench_results/bench_micro_run_report${SUFFIX}.json" \
    --benchmark_filter='^$'
  "$BUILD_DIR"/tools/mgs_perf diff \
    "bench_results/BENCH_baseline${SUFFIX}.json" \
    "bench_results/bench_micro_run_report${SUFFIX}.json" \
    --json "$BUILD_DIR/bench_diff${SUFFIX}.json"
done

# Gate self-test: seed a deliberate straggler (device 1 running 8x slow)
# into the traced run and assert the gate both FAILS (exit 1, not a
# malformed-input 2) and prints the attribution table pointing at the
# injected slowdown. A gate that silently passes an 8x straggler is worse
# than no gate.
"$BUILD_DIR"/bench/bench_micro \
  --faults "straggler:dev=1,factor=8" \
  --trace "$BUILD_DIR/bench_micro_straggler.json" \
  --out "$BUILD_DIR/bench_micro_straggler_results.json" \
  --benchmark_filter='^$'
set +e
"$BUILD_DIR"/tools/mgs_perf diff bench_results/BENCH_baseline.json \
  "$BUILD_DIR/bench_micro_straggler.json" \
  --json "$BUILD_DIR/bench_diff_straggler.json" \
  | tee "$BUILD_DIR/gate_straggler.log"
STATUS=${PIPESTATUS[0]}
set -e
if [[ $STATUS -ne 1 ]]; then
  echo "ci: ERROR - gate exited $STATUS on a seeded 8x straggler (want 1)" >&2
  exit 1
fi
grep -q "ranked attribution" "$BUILD_DIR/gate_straggler.log" || {
  echo "ci: ERROR - gate failed without printing attribution" >&2
  exit 1
}
echo "ci: gate self-test OK (seeded straggler caught and attributed)"
