#!/usr/bin/env bash
# Regenerates every paper artifact into results/ (see EXPERIMENTS.md).
# Usage: scripts/reproduce_all.sh [--quick]
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
QUICK="${1:-}"

run() {
  local name="$1"; shift
  echo "== $name =="
  # The committed tables omit the "written to" lines (scripts/ci.sh pins them).
  ./target/release/figures "$name" $QUICK | grep -v ' written to ' | tee "results/$name.txt"
  echo
}

cargo build --release -q -p primepar-bench --bin figures

run fig2_motivation
run fig7_throughput
run fig8_memory
run fig9_ablation
run fig10_3d
run table2_opt_time
run ablations

echo "artifacts written to results/"
