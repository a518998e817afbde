#!/usr/bin/env bash
# Profile one benchmark workload: where its CPU time goes, and what its
# heap holds at its peak.
#
#   scripts/profile.sh <workload> [--smoke]
#
# Builds the benchmark harness with line tables (an environment
# override of the release profile; no manifest changes) into
# $CARGO_TARGET_DIR (default target/profile), compiles the two
# LD_PRELOAD tools in scripts/profile/ with gcc, and runs one untraced
# `--child run` of <workload> at seed 1 under each:
#
#   sampler.so  SIGPROF per ms of CPU time, at most one per kernel tick
#               (≈ 2 500 samples for websearch_hermes); prints the top
#               self-time functions, the top functions counting the
#               inline frames above each sample, and the hottest
#               instructions with their source lines, via addr2line.
#   census.so   prints the peak live heap and its size classes.
#
# Raw output lands in $HERMES_PROF_OUT (default <target>/prof-<workload>).
# Both tools act only on the child they are preloaded into. Needs gcc
# and addr2line (binutils).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

usage() {
    echo "usage: scripts/profile.sh <workload> [--smoke]" >&2
    exit 2
}
[ $# -ge 1 ] || usage
workload=$1
smoke=()
case "${2:-}" in
    --smoke) smoke=(--smoke) ;;
    "") ;;
    *) usage ;;
esac
[ $# -le 2 ] || usage

target=${CARGO_TARGET_DIR:-$PWD/target/profile}
out=${HERMES_PROF_OUT:-$target/prof-$workload}
top=20
mkdir -p "$out"
rm -f "$out"/samples.* "$out"/census.*

CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR=$target \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=$target/release/hermes-benchmark
for tool in sampler census; do
    gcc -shared -fPIC -O2 -Wall -o "$out/$tool.so" "scripts/profile/$tool.c"
done

child=("$bin" --child run --workload "$workload" --seed 1 "${smoke[@]}")
HERMES_PROF_OUT=$out LD_PRELOAD=$out/sampler.so "${child[@]}" >"$out/sampled-run.json"
HERMES_PROF_OUT=$out LD_PRELOAD=$out/census.so "${child[@]}" >"$out/census-run.json"

# ---- CPU: symbolize each distinct sampled address once ---------------
exe=$(readlink -f "$bin")
cat "$out"/samples.* >"$out/samples"
total=$(wc -l <"$out/samples")
echo "== $workload: $total CPU samples (seed 1${smoke:+, smoke})"
awk -v exe="$exe" '$1 == exe { n[$2]++ } END { for (a in n) print a, n[a] }' \
    "$out/samples" >"$out/addr-counts"
cut -d' ' -f1 "$out/addr-counts" | addr2line -e "$bin" -a -f -i -C >"$out/addr-symbols"

# One line per distinct address: count<TAB>innermost function<TAB>its
# source line<TAB>every function in the inline chain, '|'-separated<TAB>
# the address.
awk 'NR == FNR { count[NR] = $2; addr[NR] = $1; next }
     /^0x/ { if (k) emit(); k++; depth = 0; next }
     { if (depth % 2 == 0) { fn[depth / 2] = $0 } else if (depth == 1) { loc = $0 }
       depth++ }
     function emit(   i, seen, chain) {
         chain = fn[0]
         seen[fn[0]]
         for (i = 1; i < depth / 2; i++) if (!(fn[i] in seen)) { seen[fn[i]]; chain = chain "|" fn[i] }
         sub(/ \(discriminator [0-9]+\)/, "", loc)
         printf "%d\t%s\t%s\t%s\t%s\n", count[k], fn[0], loc, chain, addr[k]
     }
     END { if (k) emit() }' "$out/addr-counts" "$out/addr-symbols" >"$out/addresses"

# `head` would close the pipe early and fail it under pipefail.
first() { awk -v n="$top" 'NR <= n'; }
pct() { awk -v t="$total" -F'\t' '{ printf "%6.2f%%  %s\n", 100 * $1 / t, $2 }'; }
echo "-- self time, by innermost function (other objects by name)"
{
    awk -F'\t' '{ n[$2] += $1 } END { for (f in n) printf "%d\t%s\n", n[f], f }' "$out/addresses"
    awk -v exe="$exe" '$1 != exe { n["[" $1 "]"]++ } END { for (o in n) printf "%d\t%s\n", n[o], o }' \
        "$out/samples"
} | sort -t$'\t' -k1,1nr | first | pct
echo "-- inclusive of inline frames (callers that were not inlined are not seen)"
awk -F'\t' '{ m = split($4, f, "|"); for (i = 1; i <= m; i++) n[f[i]] += $1 }
     END { for (g in n) printf "%d\t%s\n", n[g], g }' "$out/addresses" |
    sort -t$'\t' -k1,1nr | first | pct
echo "-- hottest instructions"
sort -t$'\t' -k1,1nr "$out/addresses" | first |
    awk -v t="$total" -F'\t' '{ printf "%6.2f%%  %s  %s  (%s)\n", 100 * $1 / t, $5, $3, $2 }'

# ---- Heap: the live table at the peak --------------------------------
census=$(printf '%s\n' "$out"/census.* | awk 'NR == 1')
echo "== heap at its peak: $(awk '$1 == "peak_live_bytes" { print $2 }' "$census") live bytes," \
    "$(awk '$1 == "allocations" { print $2 }' "$census") allocations in the run"
echo "-- size classes by live bytes (usable size, [lo, hi] bytes)"
awk '$1 == "class" { printf "%12d B  %6d blocks  [%d, %d]\n", $5, $4, $2, $3 }' "$census" |
    sort -rn | first
echo "peak_rss_mb under the census: $(grep -o '"peak_rss_mb":[0-9.]*' "$out/census-run.json" | cut -d: -f2)"
