#!/usr/bin/env bash
# Builds the program under test (`macs-bench`) and the benchmark from
# source, then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); build logs go to stderr, so
# standard output carries only the result record and the final result
# line.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p macs-bench >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --macs-bench "$CARGO_TARGET_DIR/release/macs-bench" "$@"
