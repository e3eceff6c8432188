#!/usr/bin/env bash
# Builds the elfie CLI (the serve daemon) and the benchmark from source,
# then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); only the
# benchmark's result reaches standard output.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p elfie-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --elfie "$CARGO_TARGET_DIR/release/elfie" "$@"
