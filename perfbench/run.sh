#!/usr/bin/env bash
# Build the benchmark (and the `secureloop` binary it drives) from
# source, then run it. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload fig16-alexnet --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
