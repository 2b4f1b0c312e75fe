#!/bin/bash
# Regenerates every table and figure of the paper. Outputs land in
# results/ (stdout = tables, .log = progress lines).
#
# Scales are chosen for a single-core budget of roughly an hour:
#   - table12 (Tables I & II, each model trained once) and table3 run at
#     the default "small" scale;
#   - the read-out / alpha / gamma sweeps (fig4, fig8, fig9) run at
#     "tiny", which preserves their shapes at a fraction of the cost —
#     pass --scale small for the slower, tighter version;
#   - the search figures (fig5, fig6, ext_indexes) train the "small"
#     model once each and time the serving engine over 2K-100K rows of
#     its codes: about two to three minutes apiece.
#
# A result replaces results/<name>.txt only when its binary exits 0 (a
# failed run leaves the previous file in place; results/<name>.log says
# why), and the script exits non-zero if any run failed.
set -u
BIN=./target/release
cargo build --release -p traj-bench || exit 1
mkdir -p results
failed=()
run() {
  name=$1; shift
  echo "=== $name: $(date +%H:%M:%S) ==="
  if "$@" > "results/$name.txt.tmp" 2> "results/$name.log"; then
    mv "results/$name.txt.tmp" "results/$name.txt"
  else
    echo "!!! $name failed (exit $?): see results/$name.log" >&2
    rm -f "results/$name.txt.tmp"
    failed+=("$name")
  fi
}
run table12 $BIN/table12 --scale small
run table3  $BIN/table3  --scale small
run fig4    $BIN/fig4    --scale tiny
run fig7    $BIN/fig7    --scale small --city porto --measure frechet
run fig8_dtw     $BIN/fig8 --scale tiny --city porto --measure dtw
run fig8_frechet $BIN/fig8 --scale tiny --city porto --measure frechet
run fig9_dtw     $BIN/fig9 --scale tiny --city porto --measure dtw
run fig9_frechet $BIN/fig9 --scale tiny --city porto --measure frechet
run fig5    $BIN/fig5    --scale small
run fig6    $BIN/fig6    --scale small
run fresh_eval  $BIN/fresh_eval --scale small
run ext_indexes $BIN/ext_indexes --scale small
if (( ${#failed[@]} )); then
  echo "=== FAILED: ${failed[*]} ($(date +%H:%M:%S)) ===" >&2
  exit 1
fi
echo "=== all done: $(date +%H:%M:%S) ==="
