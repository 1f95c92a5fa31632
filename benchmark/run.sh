#!/usr/bin/env bash
# Single entry point: build the harness offline, run all four workloads
# (untraced pass, then traced pass), and print where the raw result went.
#
#   benchmark/run.sh                 # default seed, BENCHMARK.json's run_seconds
#   benchmark/run.sh --seed 7 --seconds 30
#   benchmark/run.sh --traced        # traced pass only
#
# Raw data lands in benchmark/results/ (JSON, one document per run plus one
# Chrome trace per workload); `hidet-benchmark compare a.json b.json` renders
# two of them side by side. Build products go to the repository's target/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/hidet-benchmark" run "$@"
