#!/usr/bin/env bash
# Compare two rdabench binaries over N alternating, untraced runs.
#
#   scripts/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD N [SEED]
#
# Pair i runs both binaries on WORKLOAD (seed SEED, default 7), the
# parent first on odd pairs and the change first on even ones. Each
# run's last stdout line is its JSON result. Per end-to-end metric the
# script prints both sides' medians and quartiles, the change's delta,
# how many of the N pairs the change won, and whether the change's
# inter-quartile range stays within 25 % of the parent's median (the
# spread a claimed gain must hold). Its claim column reads `yes` when
# the change wins at least 9 in 10 pairs and its median beats the
# parent's by more than the parent's inter-quartile range (a gain that
# can be claimed), `WORSE` when its median is more than 25 % worse than
# the parent's (past BENCHMARK.json's bound), `unresolved` when either
# side's inter-quartile range exceeds 25 % of the parent's median and
# the change's worst run does not beat the parent's best (too noisy to
# call unchanged, or to claim), and `-` otherwise. `WORSE` wins over
# `unresolved`, which wins over `yes`. It also prints the failed-op counts and whether every run reported the
# same answer checksum.
#
# Build each side's rdabench once, into its own --target-dir, and copy
# the binaries out before running this: nothing may compile while the
# pairs run. The runs write their result.json under a temporary
# directory, removed on exit. Needs only bash and awk.
set -euo pipefail

if [[ $# -lt 4 || $# -gt 5 ]]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD N [SEED]" >&2
    exit 2
fi
parent=$(realpath "$1")
change=$(realpath "$2")
workload=$3
n=$4
seed=${5:-7}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run SIDE BIN: one untraced run, its checksum and result line appended
# to the side's log as "checksum<TAB>json".
run() {
    local out
    out=$(cd "$work" && "$2" run --workload "$workload" --seed "$seed" --trace 0)
    local sum
    sum=$(awk '/answer_checksum/ { for (i = 1; i < NF; i++) if ($i == "answer_checksum") print $(i + 1) }' <<<"$out")
    printf '%s\t%s\n' "$sum" "$(tail -n 1 <<<"$out")" >>"$work/$1"
}

for ((i = 1; i <= n; i++)); do
    if ((i % 2)); then
        run parent "$parent"
        run change "$change"
    else
        run change "$change"
        run parent "$parent"
    fi
    echo "pair $i/$n done" >&2
done

awk -F '\t' -v n="$n" -v workload="$workload" -v seed="$seed" '
# The value of metric m in a result line, or "" when absent.
function value(json, m,    at, rest) {
    at = index(json, "\"" m "\": {\"value\": ")
    if (!at) return ""
    rest = substr(json, at + length(m) + 14)
    return rest + 0
}
function failed(json,    at) {
    at = index(json, "\"failed\": ")
    return at ? substr(json, at + 10) + 0 : -1
}
# Quantile q of a[1..k], sorted ascending, by linear interpolation.
function quantile(a, k, q,    h, lo) {
    h = (k - 1) * q + 1
    lo = int(h)
    return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function sort(a, k,    i, j, t) {
    for (i = 2; i <= k; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
    }
}
FNR == 1 { side = (FILENAME ~ /parent$/) ? "p" : "c" }
{
    row[side, FNR] = $2
    sums[$1] = 1
    fails[side] += failed($2)
}
END {
    split("setup_s ops_per_s rows_per_s read_us heavy_us peak_rss_mb", names, " ")
    split("lower higher higher lower lower lower", better, " ")
    printf "%s, seed %s, %d pairs\n", workload, seed, n
    printf "%-12s %12s %12s %12s   %12s %12s %12s %8s %6s %6s %s\n", "metric", \
        "parent q1", "median", "q3", "change q1", "median", "q3", "delta", "wins", "spread", \
        "claim"
    for (m = 1; m in names; m++) {
        k = 0; wins = 0
        for (i = 1; i <= n; i++) {
            pv = value(row["p", i], names[m]); cv = value(row["c", i], names[m])
            if (pv == "" || cv == "") continue
            k++; P[k] = pv; C[k] = cv
            if (better[m] == "lower" ? cv < pv : cv > pv) wins++
        }
        if (!k) continue
        sort(P, k); sort(C, k)
        pm = quantile(P, k, 0.5); cm = quantile(C, k, 0.5)
        iqr = quantile(C, k, 0.75) - quantile(C, k, 0.25)
        piqr = quantile(P, k, 0.75) - quantile(P, k, 0.25)
        # How much the median of the change beats the parent median by,
        # in the direction of the metric (negative: worse).
        gain = better[m] == "lower" ? pm - cm : cm - pm
        bound = 0.25 * (pm < 0 ? -pm : pm)
        # Every change run beats every parent run: the worst against the best.
        apart = better[m] == "lower" ? C[k] < P[1] : C[1] > P[k]
        claim = "-"
        if (wins >= 0.9 * k && gain > piqr) claim = "yes"
        if ((iqr > bound || piqr > bound) && !apart) claim = "unresolved"
        if (-gain > bound) claim = "WORSE"
        printf "%-12s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g %+7.1f%% %3d/%-2d %6s %s\n", \
            names[m], quantile(P, k, 0.25), pm, quantile(P, k, 0.75), \
            quantile(C, k, 0.25), cm, quantile(C, k, 0.75), \
            pm ? 100 * (cm - pm) / pm : 0, wins, k, \
            (iqr <= 0.25 * pm) ? "ok" : "WIDE", claim
    }
    c = 0; for (s in sums) c++
    printf "failed ops: parent %d, change %d; answer checksums %s\n", \
        fails["p"], fails["c"], c == 1 ? "all equal" : "DIFFER"
}' "$work/parent" "$work/change"
