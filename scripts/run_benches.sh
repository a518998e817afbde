#!/usr/bin/env bash
# Regenerate every EXPERIMENTS.md table: build the bench binaries once,
# run each, and collect one log per figure under bench_results/.
#
# Each .txt holds the binary's stdout (tables) and stderr (per-cell
# progress lines, printed in cell order once the pool returns). Neither
# carries a wall clock, so a rerun on the same tree rewrites the files
# byte for byte. Each binary's wall time goes to the console instead.
#
# Usage:
#   scripts/run_benches.sh [outdir]        # default: bench_results
#   HERMES_SCALE=4 HERMES_RUNS=3 scripts/run_benches.sh
#
# Offline note: the build environment vendors all dependencies in-tree;
# add --offline to the cargo invocations if the registry is unreachable.

set -euo pipefail
cd "$(dirname "$0")/.."

outdir=${1:-bench_results}
mkdir -p "$outdir"

# Fail fast on a determinism/concurrency violation (DESIGN.md §13)
# before spending wall-clock on the full sweep.
cargo run -q -p xtask -- analyze

cargo build --release -p hermes-bench

for src in crates/bench/src/bin/*.rs; do
    bin=$(basename "$src" .rs)
    case "$bin" in
        trace_point) continue ;; # needs --point/--out; driven by `xtask trace`
    esac
    # Note: fig17_transient_recovery additionally asserts same-seed
    # replay determinism internally, so a digest mismatch fails the
    # sweep here rather than passing silently.
    echo "== $bin =="
    start=$SECONDS
    if ! cargo run --release -q -p hermes-bench --bin "$bin" \
            >"$outdir/$bin.txt" 2>&1; then
        echo "FAILED: $bin (see $outdir/$bin.txt)" >&2
        exit 1
    fi
    tail -n 3 "$outdir/$bin.txt"
    echo "   ($bin: $((SECONDS - start)) s)"
done

echo "done: results in $outdir/"
