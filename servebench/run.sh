#!/usr/bin/env bash
# Builds the shipped `spark` binary and the benchmark from source, then
# runs the benchmark against it. Run from the repository root:
#
#   bash servebench/run.sh --workload infer --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p spark-cli >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" --spark-bin "$CARGO_TARGET_DIR/release/spark" "$@"
