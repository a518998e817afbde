#!/usr/bin/env bash
# The one command of the repo benchmark (BENCHMARK.json, README.md).
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one measurement
#   benchmark/run.sh [--seed N] [--sets K] [--smoke]                  the whole report
#
# Builds the harness from source (offline, zero registry crates) and
# runs it from the root of the checkout, which is where it writes
# benchmark/out/. The build lands in $CARGO_TARGET_DIR when the caller
# sets it, else in benchmark/target/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
