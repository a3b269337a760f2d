#!/usr/bin/env bash
# Interleaved A/B comparison of the repo benchmark between two revisions.
#
# usage: scripts/ab.sh <rev-a> <rev-b> [--pairs N] [--workload W] [--seconds S]
#
# Checks each revision out into a/ and b/ of a fresh scratch directory
# under ${TMPDIR:-/tmp}, builds its benchmark/, then runs the BENCHMARK.json command N times per side and
# workload in interleaved pairs: pair i runs both sides back to back with
# --seed i, and the side that goes first alternates. Raw outputs stay in
# runs/ there; the table per workload and metric gives each side's median and
# q1-q3, the change of the medians, and in how many of the N pairs B beat
# A ("=k" counts exact ties).
#
# Defaults: 10 pairs, every workload BENCHMARK.json lists, and its
# run_seconds. Run from inside the repo.
set -euo pipefail

usage() {
    awk 'NR == 4 { sub(/^# /, ""); print }' "$0" >&2
    exit 2
}

[[ $# -ge 2 ]] || usage
rev_a=$1
rev_b=$2
shift 2
pairs=10
workloads=()
seconds=
while [[ $# -gt 0 ]]; do
    [[ $# -ge 2 ]] || usage
    case $1 in
        --pairs) pairs=$2 ;;
        --workload) workloads+=("$2") ;;
        --seconds) seconds=$2 ;;
        *) usage ;;
    esac
    shift 2
done

root=$(git rev-parse --show-toplevel)
spec=$root/BENCHMARK.json
# The JSON arrays and scalars this script needs, one value per line.
json_list() { # <key>: the strings of array <key>, or the "name"s of its objects
    awk -v key="\"$1\"" '
        index($0, key) && /\[/ { inside = 1; next }
        inside && /^ *\]/ { exit }
        inside && /"name"/ { sub(/.*"name": *"/, ""); sub(/".*/, ""); print; next }
        inside && /^ *"/ && !/:/ { gsub(/^ *"|",? *$/, ""); print }
    ' "$spec"
}
mapfile -t command < <(json_list command)
[[ ${#workloads[@]} -gt 0 ]] || mapfile -t workloads < <(json_list workloads)
[[ -n $seconds ]] || seconds=$(awk -F: '/"run_seconds"/ { gsub(/[ ,]/, "", $2); print $2 }' "$spec")

out=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
echo "scratch directory: $out"
mkdir "$out/runs"
for side in a b; do
    rev=rev_$side
    sha=$(git rev-parse --verify "${!rev}^{commit}")
    echo "$side = ${!rev} ($sha)"
    # A private index and work tree: the repo's own index and HEAD stay
    # as they are.
    mkdir "$out/$side"
    GIT_INDEX_FILE=$out/$side.index git --work-tree="$out/$side" checkout "$sha" -- .
    # Build outside the timed runs.
    (cd "$out/$side" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

for workload in "${workloads[@]}"; do
    for ((pair = 1; pair <= pairs; pair++)); do
        order="a b"
        ((pair % 2)) || order="b a"
        for side in $order; do
            echo "$workload pair $pair/$pairs: $side" >&2
            (cd "$out/$side" && "${command[@]}" --workload "$workload" --seed "$pair" \
                --seconds "$seconds") > "$out/runs/$workload.$side.$pair.txt"
        done
    done
done

# One row per workload and metric: median [q1-q3] of each side, the change
# of B's median against A's, and B's wins over A across the pairs.
for workload in "${workloads[@]}"; do
    for ((pair = 1; pair <= pairs; pair++)); do
        for side in a b; do
            awk -v w="$workload" -v s="$side" -v p="$pair" '
                /^  [a-z_0-9]+ +[-0-9.e]+ / {
                    dir = /higher is better/ ? "higher" : "lower"
                    print w, $1, dir, s, p, $2
                }
                /operations:/ { print w, "failed", "lower", s, p, $4 }
            ' "$out/runs/$workload.$side.$pair.txt"
        done
    done
done | awk -v pairs="$pairs" '
    function quantile(list, n, q,    v, i, lo, hi, f) {
        split(list, v, " ")
        for (i = 2; i <= n; i++) { # insertion sort: n is small
            f = v[i] + 0
            for (lo = i - 1; lo >= 1 && v[lo] + 0 > f; lo--) v[lo + 1] = v[lo]
            v[lo + 1] = f
        }
        f = (n - 1) * q + 1
        lo = int(f); hi = lo < n ? lo + 1 : lo
        return v[lo] + (f - lo) * (v[hi] - v[lo])
    }
    {
        key = $1 SUBSEP $2
        if (!(key in dir)) { dir[key] = $3; order[++rows] = key }
        value[key, $4, $5] = $6
        list[key, $4] = list[key, $4] " " $6
        count[key, $4]++
    }
    function summary(key, side, n) {
        return sprintf("%.4g [%.4g-%.4g]", quantile(list[key, side], n, 0.5),
            quantile(list[key, side], n, 0.25), quantile(list[key, side], n, 0.75))
    }
    END {
        printf "%-12s %-17s %-32s %-32s %8s %s\n", "workload", "metric", "A median [q1-q3]", "B median [q1-q3]", "B vs A", "B wins"
        for (r = 1; r <= rows; r++) {
            key = order[r]
            split(key, part, SUBSEP)
            n = count[key, "a"]
            if (n != count[key, "b"]) continue
            ma = quantile(list[key, "a"], n, 0.5); mb = quantile(list[key, "b"], n, 0.5)
            wins = 0; ties = 0
            for (p = 1; p <= pairs; p++) {
                a = value[key, "a", p] + 0; b = value[key, "b", p] + 0
                if (a == b) ties++
                else if ((dir[key] == "higher") == (b > a)) wins++
            }
            change = ma != 0 ? sprintf("%+.1f%%", 100 * (mb - ma) / ma) : "-"
            printf "%-12s %-17s %-32s %-32s %8s %d/%d%s\n", part[1], part[2],
                summary(key, "a", n), summary(key, "b", n), change, wins, n, ties ? " =" ties : ""
        }
    }
'
echo "raw outputs: $out/runs"
