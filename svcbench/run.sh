#!/usr/bin/env bash
# Builds `incgraph` and the svcbench load generator from source, then runs
# one workload. Run from the repository root:
#   bash svcbench/run.sh --workload durable-ingest --seed 1 --seconds 15 --trace 0
# The last line of standard output is the JSON result; build output and
# progress go to standard error.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p incgraph-bench --bin incgraph >&2
cargo build --release --offline --quiet --manifest-path svcbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/svcbench" --server "$CARGO_TARGET_DIR/release/incgraph" "$@"
