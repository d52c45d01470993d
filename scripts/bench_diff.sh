#!/usr/bin/env bash
# Compare two devkit bench result files (BENCH_<name>.json) and flag
# median-time regressions.
#
#   scripts/bench_diff.sh [--slo] OLD.json NEW.json [threshold_pct]
#
# Benchmarks are matched by id; a benchmark whose median_ns grew by
# more than threshold_pct (default 20) is reported as a REGRESSION and
# the script exits nonzero. Ids present in only one file are listed but
# never fail the diff (benches come and go across PRs).
#
# --slo appends summary rows computed from NEW.json alone: for every
# benchmark id that also exists in a "<id>_traced" variant (the serve
# bench's sampled-tracing runs), the overhead of the traced median over
# the untraced one is printed against the 5% tracing budget from
# DESIGN.md §7i. The rows are advisory — overhead on this 1-core host
# jitters like every other timing — so they never change the exit
# status; the hard <5% check happens when BENCH_serve.json is
# regenerated on a quiet host.
#
# Scalar metrics (the optional "metrics" array: hit rates, balance
# factors — goodness measures where DOWN is bad) are matched by id too:
# a metric whose value dropped by more than threshold_pct is a
# REGRESSION; growth beyond the threshold is reported as "changed" but
# never fails, since the sign convention only guarantees that lower is
# worse.
#
# Relies on the devkit harness writing one result record per line —
# that one-record-per-line shape is part of the documented schema
# (DESIGN.md), which keeps this diff a plain awk job in the
# dependency-free workspace.
set -euo pipefail

SLO=0
if [ "${1:-}" = --slo ]; then
    SLO=1
    shift
fi
if [ "$#" -lt 2 ] || [ "$#" -gt 3 ]; then
    echo "usage: $0 [--slo] OLD.json NEW.json [threshold_pct]" >&2
    exit 2
fi
OLD=$1
NEW=$2
THRESHOLD=${3:-20}
[ -f "$OLD" ] || { echo "bench_diff: no such file: $OLD" >&2; exit 2; }
[ -f "$NEW" ] || { echo "bench_diff: no such file: $NEW" >&2; exit 2; }

# Each result record sits on its own line: pull out (id, median_ns).
extract() {
    awk '
        /"id":/ && /"median_ns":/ {
            id = $0;    sub(/.*"id": "/, "", id);        sub(/".*/, "", id)
            med = $0;   sub(/.*"median_ns": /, "", med); sub(/[,}].*/, "", med)
            print id "\t" med
        }
    ' "$1"
}

extract "$OLD" | sort > "${TMPDIR:-/tmp}/bench_diff_old.$$"
extract "$NEW" | sort > "${TMPDIR:-/tmp}/bench_diff_new.$$"
trap 'rm -f "${TMPDIR:-/tmp}/bench_diff_old.$$" "${TMPDIR:-/tmp}/bench_diff_new.$$"' EXIT

STATUS=0
join -t "$(printf '\t')" \
    "${TMPDIR:-/tmp}/bench_diff_old.$$" "${TMPDIR:-/tmp}/bench_diff_new.$$" |
awk -F'\t' -v thr="$THRESHOLD" '
    {
        old = $2 + 0; new = $3 + 0
        delta = old > 0 ? (new - old) * 100.0 / old : 0
        mark = "ok        "
        if (delta > thr)       { mark = "REGRESSION"; bad++ }
        else if (delta < -thr) { mark = "improved  " }
        printf "%s  %-40s  %12.1f -> %12.1f ns  %+7.1f%%\n", mark, $1, old, new, delta
    }
    END { exit bad > 0 ? 1 : 0 }
' || STATUS=1

# Ids only in one file: informational.
comm -23 "${TMPDIR:-/tmp}/bench_diff_old.$$" "${TMPDIR:-/tmp}/bench_diff_new.$$" |
    cut -f1 | while read -r id; do
        grep -q "^$id	" "${TMPDIR:-/tmp}/bench_diff_new.$$" || echo "removed     $id"
    done
comm -13 "${TMPDIR:-/tmp}/bench_diff_old.$$" "${TMPDIR:-/tmp}/bench_diff_new.$$" |
    cut -f1 | while read -r id; do
        grep -q "^$id	" "${TMPDIR:-/tmp}/bench_diff_old.$$" || echo "added       $id"
    done

# Scalar metric records carry "value" instead of "median_ns".
extract_metrics() {
    awk '
        /"id":/ && /"value":/ && !/"median_ns":/ {
            id = $0;   sub(/.*"id": "/, "", id);      sub(/".*/, "", id)
            val = $0;  sub(/.*"value": /, "", val);   sub(/[,}].*/, "", val)
            print id "\t" val
        }
    ' "$1"
}

extract_metrics "$OLD" | sort > "${TMPDIR:-/tmp}/bench_diff_mold.$$"
extract_metrics "$NEW" | sort > "${TMPDIR:-/tmp}/bench_diff_mnew.$$"
trap 'rm -f "${TMPDIR:-/tmp}/bench_diff_old.$$" "${TMPDIR:-/tmp}/bench_diff_new.$$" \
            "${TMPDIR:-/tmp}/bench_diff_mold.$$" "${TMPDIR:-/tmp}/bench_diff_mnew.$$"' EXIT

join -t "$(printf '\t')" \
    "${TMPDIR:-/tmp}/bench_diff_mold.$$" "${TMPDIR:-/tmp}/bench_diff_mnew.$$" |
awk -F'\t' -v thr="$THRESHOLD" '
    {
        old = $2 + 0; new = $3 + 0
        delta = old > 0 ? (new - old) * 100.0 / old : 0
        mark = "ok        "
        if (delta < -thr)      { mark = "REGRESSION"; bad++ }
        else if (delta > thr)  { mark = "changed   " }
        printf "%s  %-40s  %12.1f -> %12.1f      %+7.1f%%\n", mark, $1, old, new, delta
    }
    END { exit bad > 0 ? 1 : 0 }
' || STATUS=1
comm -23 "${TMPDIR:-/tmp}/bench_diff_mold.$$" "${TMPDIR:-/tmp}/bench_diff_mnew.$$" |
    cut -f1 | while read -r id; do
        grep -q "^$id	" "${TMPDIR:-/tmp}/bench_diff_mnew.$$" || echo "removed     $id (metric)"
    done
comm -13 "${TMPDIR:-/tmp}/bench_diff_mold.$$" "${TMPDIR:-/tmp}/bench_diff_mnew.$$" |
    cut -f1 | while read -r id; do
        grep -q "^$id	" "${TMPDIR:-/tmp}/bench_diff_mold.$$" || echo "added       $id (metric)"
    done

# --slo: tracing-overhead summary rows from NEW alone. Every
# "<id>_traced" result is paired with its untraced "<id>" and the
# overhead printed against the 5% budget (advisory: never fails).
if [ "$SLO" = 1 ]; then
    awk -F'\t' '
        { med[$1] = $2 + 0 }
        END {
            for (id in med) {
                base = id; if (sub(/_traced$/, "", base) && base in med && med[base] > 0) {
                    over = (med[id] - med[base]) * 100.0 / med[base]
                    mark = over > 5 ? "over      " : "ok        "
                    printf "%s  slo:tracing-overhead %-19s  %12.1f -> %12.1f ns  %+7.1f%%  (budget 5%%)\n", \
                        mark, base, med[base], med[id], over
                }
            }
        }
    ' "${TMPDIR:-/tmp}/bench_diff_new.$$"
fi

exit "$STATUS"
