#!/usr/bin/env bash
# Regenerate every EXPERIMENTS.md table: build the `fig` binary once,
# run it for each name it lists, and collect one log per figure under
# bench_results/.
#
# Each .txt holds `fig <name>`'s stdout (tables) and stderr (per-cell
# progress lines, printed in cell order once the pool returns). Neither
# carries a wall clock, so a rerun on the same tree rewrites the files
# byte for byte. Each figure's wall time goes to the console instead.
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

# Fail fast on a determinism/concurrency violation (the lint gate,
# DESIGN.md §13) before spending wall-clock on the full sweep.
cargo clippy -q --workspace --all-targets -- -D warnings

cargo build --release -p hermes-bench --bin fig
fig=target/release/fig

for name in $("$fig"); do
    # Note: fig17_transient_recovery and collective_stall additionally
    # assert same-seed replay determinism internally, so a digest
    # mismatch fails the sweep here rather than passing silently.
    echo "== $name =="
    start=$SECONDS
    if ! "$fig" "$name" >"$outdir/$name.txt" 2>&1; then
        echo "FAILED: $name (see $outdir/$name.txt)" >&2
        exit 1
    fi
    tail -n 3 "$outdir/$name.txt"
    echo "   ($name: $((SECONDS - start)) s)"
done

echo "done: results in $outdir/"
