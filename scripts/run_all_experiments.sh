#!/usr/bin/env bash
# Regenerate every experiment in EXPERIMENTS.md.
#
# Usage:  scripts/run_all_experiments.sh [build_dir] [artifact_dir]
#
# Runs the full test suite, then every bench binary, capturing outputs
# under <artifact_dir>/ (default: ./experiment_outputs).  When gnuplot
# is installed, also renders the paper-style figures from the exported
# CSVs.
#
# JOBS controls parallelism (default: nproc).  scale_flows runs its
# population grid on the sweep runner and gets it as --jobs; the
# remaining benches are launched JOBS at a time.  `ablations`
# runs with no argument, so ablations.txt holds every entry of the
# ablation table (EXPERIMENTS.md's ablation sections).  Every bench is a
# self-contained deterministic process, so outputs are identical at any
# JOBS value.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-experiment_outputs}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 1)}"

mkdir -p "$OUT_DIR"

echo "== tests =="
ctest --test-dir "$BUILD_DIR" | tee "$OUT_DIR/ctest.txt" | tail -2

echo "== benches (JOBS=$JOBS) =="
export CORELITE_ARTIFACTS="$OUT_DIR"
for b in "$BUILD_DIR"/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name="$(basename "$b")"
  echo "-- $name"
  case "$name" in
    scale_flows)
      # Parallelizes its population grid internally via the sweep runner.
      "$b" --jobs "$JOBS" >"$OUT_DIR/$name.txt" 2>&1
      ;;
    *)
      "$b" >"$OUT_DIR/$name.txt" 2>&1 &
      while [ "$(jobs -rp | wc -l)" -ge "$JOBS" ]; do wait -n; done
      ;;
  esac
done
wait

echo "== seed sweep (corelite_sim --sweep) =="
"$BUILD_DIR/tools/corelite_sim" --sweep 5 --jobs "$JOBS" \
  --sweep-scenarios fig3,fig5,fig7,fig9 --sweep-mechanisms corelite,csfq \
  --quiet --json "$OUT_DIR/sweep_summary.json" --sweep-csv "$OUT_DIR/sweep_cells.csv" \
  >"$OUT_DIR/sweep.txt" 2>&1
tail -n +1 "$OUT_DIR/sweep.txt" | head -12

if command -v gnuplot >/dev/null 2>&1; then
  echo "== figures =="
  (cd "$OUT_DIR" && for gp in *.gp; do [ -f "$gp" ] && gnuplot "$gp"; done)
else
  echo "gnuplot not found; CSVs and .gp scripts are in $OUT_DIR"
fi

echo "done: outputs in $OUT_DIR"
