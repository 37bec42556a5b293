#!/usr/bin/env bash
# A/B comparison of two builds of the benchmark harness (examples/benchmark),
# run in alternating order.
#
#   scripts/ab_pairs.sh PARENT_BIN CHANGE_BIN [--pairs N] [--workloads a,b]
#                       [--seeds 7,11] [--out DIR] [-- HARNESS_ARGS...]
#
# PARENT_BIN and CHANGE_BIN are `benchmark` binaries built from the two
# checkouts (cargo build --release --manifest-path examples/benchmark/Cargo.toml).
# For every workload and seed the script runs N pairs; pair i runs the parent
# first when i is even and the change first when i is odd, so neither build
# always meets the warmer (or the noisier) host.  HARNESS_ARGS reach every
# run (e.g. `-- --seconds 20`, `-- --smoke`).
#
# Per workload, seed and metric (the per-layer ones too, given `--trace 1`)
# it prints the parent's and the change's median with their quartiles, the
# change of the median, the pairs the change won (in the metric's better
# direction, read from BENCHMARK.json) and whether the median moved by more
# than the parent's inter-quartile distance.  It exits non-zero if a run fails, or if the
# counts line (slides, refreshes, skips, deliveries, gain evaluations, the
# probe checksum and both score-ratio bits) of a change run differs from the
# parent's at the same seed: a change that claims identical decisions must
# not move them.
#
# Defaults: 10 pairs, all four workloads, seed 7.  Every run's stdout is kept
# under --out (default: a fresh temporary directory, printed at the end).
set -euo pipefail

usage() {
    sed -n '2,25p' "$0" >&2
    exit 2
}

[ $# -ge 2 ] || usage
parent=$1
change=$2
shift 2
pairs=10
workloads=ingest_dense,adhoc_wide,standing_distinct,standing_shared_async
seeds=7
out=
while [ $# -gt 0 ]; do
    case $1 in
        --pairs) pairs=$2; shift 2 ;;
        --workloads) workloads=$2; shift 2 ;;
        --seeds) seeds=$2; shift 2 ;;
        --out) out=$2; shift 2 ;;
        --) shift; break ;;
        *) usage ;;
    esac
done
for bin in "$parent" "$change"; do
    [ -x "$bin" ] || { echo "ab_pairs: $bin is not an executable" >&2; exit 2; }
done
[ -n "$out" ] || out=$(mktemp -d "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")
mkdir -p "$out"
contract="$(dirname "$0")/../BENCHMARK.json"
# End-to-end metrics whose larger value is the better one.
higher=$(grep -o '"name": "[a-z0-9_.]*", "unit": "[^"]*", "better": "higher"' "$contract" |
    sed 's/"name": "\([^"]*\)".*/\1/' | tr '\n' ' ')

failed=0

# Runs one side of one pair, keeping its stdout; a failing run is reported
# and counted, never retried.
run() {
    local side=$1 bin=$2 workload=$3 seed=$4 pair=$5
    shift 5
    local file="$out/$workload.$seed.$side.$pair.txt"
    if ! "$bin" --workload "$workload" --seed "$seed" "$@" >"$file" 2>&1; then
        echo "  FAILED: $side pair $pair exited non-zero (see $file)"
        failed=1
    elif ! grep -q '^{"correct": true' "$file"; then
        echo "  FAILED: $side pair $pair reports an incorrect run (see $file)"
        failed=1
    fi
}

# `name value` for every metric of one run's result line: the end-to-end
# metrics, and the per-layer ones too when the run was traced.
metrics() {
    { grep '^{"correct"' "$1" || true; } | grep -o '"[a-z0-9_.]*": {"value": [-0-9.eE+]*' |
        sed 's/"\([^"]*\)": {"value": /\1 /' || true
}

IFS=, read -r -a workload_list <<<"$workloads"
IFS=, read -r -a seed_list <<<"$seeds"
for workload in "${workload_list[@]}"; do
    for seed in "${seed_list[@]}"; do
        echo "$workload  seed $seed  $pairs pairs"
        for ((i = 0; i < pairs; i++)); do
            if ((i % 2 == 0)); then
                run parent "$parent" "$workload" "$seed" "$i" "$@"
                run change "$change" "$workload" "$seed" "$i" "$@"
            else
                run change "$change" "$workload" "$seed" "$i" "$@"
                run parent "$parent" "$workload" "$seed" "$i" "$@"
            fi
            p="$out/$workload.$seed.parent.$i.txt"
            c="$out/$workload.$seed.change.$i.txt"
            if [ "$(grep '^  counts ' "$p")" != "$(grep '^  counts ' "$c")" ]; then
                echo "  COUNTS DIFFER in pair $i:"
                grep '^  counts ' "$p" "$c" | sed 's/^/    /'
                failed=1
            fi
        done
        # One `side pair name value` line per metric and run, summarised per
        # metric by awk.
        for ((i = 0; i < pairs; i++)); do
            for side in parent change; do
                metrics "$out/$workload.$seed.$side.$i.txt" | sed "s/^/$side $i /"
            done
        done | awk -v higher=" $higher " '
            function quartile(sorted, n, q,    h, lo) {
                h = (n - 1) * q; lo = int(h)
                return lo + 1 < n ? sorted[lo] + (h - lo) * (sorted[lo + 1] - sorted[lo]) : sorted[lo]
            }
            function summary(side, name,    n, i, j, t, v) {
                n = 0
                for (i = 0; (side SUBSEP name SUBSEP i) in value; i++) v[n++] = value[side, name, i]
                for (i = 1; i < n; i++) for (j = i; j > 0 && v[j - 1] > v[j]; j--) {
                    t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
                }
                q1[side] = quartile(v, n, 0.25); med[side] = quartile(v, n, 0.5); q3[side] = quartile(v, n, 0.75)
                return n
            }
            { value[$1, $3, $2] = $4; if (!($3 in seen)) { seen[$3] = 1; order[m++] = $3 } }
            END {
                printf "  %-24s %35s %35s %9s %6s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "median", "wins", "beyond parent IQR"
                for (k = 0; k < m; k++) {
                    name = order[k]
                    n = summary("parent", name); summary("change", name)
                    up = index(higher, " " name " ") > 0
                    wins = 0
                    for (i = 0; i < n; i++) {
                        d = value["change", name, i] - value["parent", name, i]
                        if ((up && d > 0) || (!up && d < 0)) wins++
                    }
                    rel = med["parent"] != 0 ? 100 * (med["change"] - med["parent"]) / med["parent"] : 0
                    moved = med["change"] - med["parent"]; if (moved < 0) moved = -moved
                    beyond = moved > q3["parent"] - q1["parent"] ? "yes" : "no"
                    printf "  %-24s %10.4g [%10.4g, %10.4g] %10.4g [%10.4g, %10.4g] %+8.2f%% %3d/%-2d %s\n", \
                        name, med["parent"], q1["parent"], q3["parent"], \
                        med["change"], q1["change"], q3["change"], rel, wins, n, beyond
                }
            }'
    done
done
echo "runs kept in $out"
if ((failed)); then
    echo "ab_pairs: FAILED (a run failed or a counts line moved)" >&2
    exit 1
fi
