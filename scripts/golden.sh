#!/usr/bin/env bash
# Write the golden table of modeled figure points: one mgs-run-report-v1
# line (bench --history-file) per point the Figure 9-14 tables print, at
# --total-log2 20 --min-n-log2 13 -- Figure 9 sync and overlap for
# i32/plus, f64/max and i64/min, then Figures 10-14 with the Figure 11/12
# library columns.
#
#   scripts/golden.sh BUILD_DIR OUT
#
# The benches also drop their JSON artifacts under ./bench_results, so run
# it from inside the build tree. The `golden` ctest does that and gates the
# result with `mgs_perf diff bench_results/golden_modeled.ndjson OUT`. To
# re-snapshot after an intentional model change:
#
#   cd build && ../scripts/golden.sh . ../bench_results/golden_modeled.ndjson
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT" >&2
  exit 2
fi
BUILD_DIR=$1
OUT=$2
rm -f "$OUT"

run() {
  "$BUILD_DIR/bench/$1" --total-log2 20 --min-n-log2 13 \
    --history-file "$OUT" "${@:2}" >/dev/null
}

for cfg in "i32 plus" "f64 max" "i64 min"; do
  read -r DT OP <<<"$cfg"
  run bench_fig9_mps --dtype "$DT" --op "$OP"
done
for b in bench_fig10_mppc bench_fig11_g1 bench_fig12_batch \
         bench_fig13_multinode bench_fig14_breakdown; do
  run "$b"
done
echo "golden: $(wc -l <"$OUT") points -> $OUT"
