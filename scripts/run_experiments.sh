#!/usr/bin/env bash
# Runs every experiment of the rmts-exp registry, in registry order.
#
# Usage: scripts/run_experiments.sh [--quick [DIR]]
#
# A full run rewrites results/: each table's CSV, every table's text in
# results/full_run.txt, and EXP-12's report (results/exp12_frontier.json,
# its tables in results/exp12_frontier.txt). A quick run writes the same
# files into DIR (default: a fresh temporary directory), prints where, and
# leaves results/ alone. Any experiment that exits non-zero stops the run.
#
# The EXP-12 smoke golden that CI byte-compares is regenerated only by
# the one explicit command
#   target/release/rmts-exp exp12 --quick --out results
set -euo pipefail
cd "$(dirname "$0")/.."
case "${1:-}" in
  "") quick=""; out=results; exp12=exp12_frontier ;;
  --quick) quick=--quick; out="${2:-$(mktemp -d)}"; exp12=exp12_frontier_smoke ;;
  *) echo "usage: scripts/run_experiments.sh [--quick [DIR]]" >&2; exit 2 ;;
esac
cargo build --release -p rmts-exp
exp=target/release/rmts-exp
# The ids are the lines after "experiments" in the usage text.
ids=$({ "$exp" || true; } 2>&1 | awk '/^experiments/ { on = 1; next } on && NF { print $1 }')
[ -n "$ids" ] || { echo "no experiment ids in the rmts-exp usage text" >&2; exit 1; }
mkdir -p "$out"
: > "$out/full_run.txt"
for id in $ids; do
  if [ "$id" = exp12 ]; then
    echo "===== exp12 (tables in $out/$exp12.txt) ====="
    "$exp" exp12 $quick --out "$out" > "$out/$exp12.txt"
  else
    { echo "===== $id ====="; "$exp" "$id" $quick --out "$out"; echo; } |
      tee -a "$out/full_run.txt"
  fi
done
echo "results in $out"
