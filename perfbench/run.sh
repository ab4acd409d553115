#!/usr/bin/env bash
# Entry point of the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload memo-hot --seed 1 --seconds 10 --trace 0
#
# Builds the server under test (`rmts-cli`, with the repository's own
# release profile) and the benchmark package, then runs one workload. The
# last line of stdout is the JSON result; progress and the metric table go
# to stderr. Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the repository root (Cargo.toml, crates/ and perfbench/ needed)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline -q --bin rmts-cli >&2
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/rmts-perfbench" \
    --server-bin "$CARGO_TARGET_DIR/release/rmts-cli" \
    --rustc "$(rustc -V)" \
    --git-rev "$(git rev-parse HEAD 2>/dev/null || echo unknown)" \
    "$@"
