#!/usr/bin/env bash
# Builds the layered benchmark from source, then runs it with the given
# arguments. Run it from the repository root:
#
#   bash layerbench/run.sh --workload batch-mixed --seed 1 --seconds 30 --trace 0
#   bash layerbench/run.sh --self-test
#
# Build output goes to standard error, so the benchmark's result stays the
# last line of standard output. CARGO_TARGET_DIR defaults to .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/layerbench" "$@"
