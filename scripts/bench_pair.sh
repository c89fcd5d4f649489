#!/bin/sh
# Paired-seed gate (ROADMAP 4a): run one dnsbench workload on a parent
# commit and on this checkout at the same seeds, and compare.
#
#   sh scripts/bench_pair.sh <parent-ref> <workload> [seeds [pairs]]
#   sh scripts/bench_pair.sh HEAD~1 query-mix 1,2,3
#   CLAIM=ops_per_s sh scripts/bench_pair.sh HEAD~1 replay-serial 1,2,3 10
#
# Every run is judged on what a fixed seed repeats: the counts
# (allocs_per_op, alloc_kb_per_op, store_mb — to 0.1 % on any box) fail
# the gate when the change is more than 1 % worse than the parent at any
# seed, as does a run whose correctness gate misses and a store_digest
# that differs from the parent's: the same seed must leave the same
# store, byte for byte. peak_rss_mb repeats to a few percent and is
# judged at BENCHMARK.json's 15 % bound. One count does not repeat on one
# workload: net-durable's alloc_kb_per_op follows how far acknowledgements
# lagged in the run, on either build — the sensor's unacknowledged buffer
# doubles once more in a slow one (0.450-0.474 KB over twenty runs of one
# commit, 5 of 10 clean pairs past 1 %) — so there it is judged at 5 %;
# the object count, allocs_per_op, repeats to 0.1 % and keeps the 1 % rule.
#
# Timing spreads 10-20 % on a shared runner (cmd/dnsbench/NOISE.md).
# Without <pairs> there is one pair per seed and timing is printed side
# by side, not judged. With <pairs> the script runs that many pairs,
# alternating which side goes first and cycling through the seeds, and
# for ops_per_s, cpu_us_per_op and latency_ms_p50 prints both medians,
# the distance between the parent's quartiles (Python's
# statistics.quantiles(n=4), as the benchmark contract takes them) and
# in how many pairs the change read better. A metric named in
# CLAIM=<metric> fails the gate unless the change wins at least nine
# tenths of the pairs and the medians lie further apart, in the claimed
# direction, than that distance — the rule a timing claim has to meet.
#
# The parent is exported with `git archive` into a temporary directory
# and removed on exit; each side runs `go run ./cmd/dnsbench` from its
# own root, so each writes only under its own .bench_build/.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: [CLAIM=<metric>] sh scripts/bench_pair.sh <parent-ref> <workload> [seeds, default 1,2,3 [pairs]]" >&2
    exit 2
fi
ref=$1
workload=$2
seeds=$(printf '%s' "${3:-1,2,3}" | tr ',' ' ')
pairs=${4:-0}
claim=${CLAIM:-}
timed="ops_per_s cpu_us_per_op latency_ms_p50"
if [ -n "$claim" ]; then
    case " $timed " in
    *" $claim "*) ;;
    *) echo "bench_pair: CLAIM must be one of: $timed" >&2; exit 2 ;;
    esac
    if [ "$pairs" -eq 0 ]; then
        echo "bench_pair: a CLAIM needs a number of pairs (ten, by the benchmark contract)" >&2
        exit 2
    fi
fi

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
parent="$work/parent"
trap 'rm -rf "$work"' EXIT
trap 'exit 1' INT TERM
mkdir "$parent"
git -C "$root" archive "$ref" | tar -x -C "$parent"

# run <side> <dir> <seed> <pair>: the run's output, kept; a missed
# correctness gate (non-zero exit, or correct=false in the summary) fails
# the script.
run() {
    out="$work/$1-$4.txt"
    if ! (cd "$2" && go run ./cmd/dnsbench --workload "$workload" --seed "$3") >"$out" 2>"$out.err"; then
        cat "$out" "$out.err" >&2
        echo "bench_pair: $1 run failed at seed $3" >&2
        exit 1
    fi
    if ! grep -q '^{"correct":true' "$out"; then
        cat "$out" >&2
        echo "bench_pair: $1 is not correct at seed $3" >&2
        exit 1
    fi
}
metric() { awk -v m="$2" '$1 == m { print $2 }' "$1"; }
digest() { sed -n 's/.*"store_digest":"\([0-9a-f]*\)".*/\1/p' "$1"; }

# The seed of each pair: one pair per seed, or <pairs> pairs over the
# seeds in turn.
if [ "$pairs" -eq 0 ]; then
    plan=$seeds
else
    plan=$(echo "$seeds" | awk -v n="$pairs" '{ for (i = 0; i < n; i++) printf "%s ", $(i % NF + 1) }')
fi

kb=0.01 # alloc_kb_per_op's bound; see the header for the exception
[ "$workload" != net-durable ] || kb=0.05
fail=0
flip=0
i=0
for seed in $plan; do
    i=$((i + 1))
    # Alternate which side goes first, so neither always runs warm.
    if [ "$flip" -eq 0 ]; then
        run parent "$parent" "$seed" "$i"
        run change "$root" "$seed" "$i"
    else
        run change "$root" "$seed" "$i"
        run parent "$parent" "$seed" "$i"
    fi
    flip=$((1 - flip))
    p="$work/parent-$i.txt"
    c="$work/change-$i.txt"
    echo "== $workload, pair $i, seed $seed: parent $ref vs change"
    # <metric>:<bound>, the share by which the change may be worse.
    for mb in allocs_per_op:0.01 alloc_kb_per_op:$kb store_mb:0.01 peak_rss_mb:0.15; do
        m=${mb%:*}
        pv=$(metric "$p" "$m")
        cv=$(metric "$c" "$m")
        verdict=$(awk -v p="$pv" -v c="$cv" -v b="${mb#*:}" 'BEGIN { print (c > p * (1 + b)) ? "WORSE" : "ok" }')
        printf '  %-18s %14s -> %-14s %s\n' "$m" "$pv" "$cv" "$verdict"
        [ "$verdict" = ok ] || fail=1
    done
    for m in $timed setup_s; do
        printf '  %-18s %14s -> %-14s (not judged)\n' "$m" "$(metric "$p" "$m")" "$(metric "$c" "$m")"
    done
    for m in $timed; do
        echo "$(metric "$p" "$m") $(metric "$c" "$m")" >>"$work/pairs-$m.txt"
    done
    if [ -n "$(digest "$p")" ] && [ "$(digest "$p")" = "$(digest "$c")" ]; then
        echo "  store_digest       identical ($(digest "$p" | cut -c1-8))"
    else
        echo "  store_digest       DIFFERS: $(digest "$p") -> $(digest "$c")"
        fail=1
    fi
done

if [ "$pairs" -gt 0 ]; then
    echo "== $workload, $pairs pairs: timing (parent median -> change median, parent Q3-Q1, pairs the change won)"
    for m in $timed; do
        # One "parent change" line per pair in; the verdict out. Higher is
        # better for ops_per_s, lower for the other two.
        line=$(awk -v m="$m" -v claim="$claim" '
            function quart(x, n, k,    j, d) { # statistics.quantiles(n=4), exclusive
                j = int(k * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
                d = k * (n + 1) - j * 4
                return (x[j] * (4 - d) + x[j + 1] * d) / 4
            }
            function sorted(src, dst, n,    i, j, t) {
                for (i = 1; i <= n; i++) dst[i] = src[i]
                for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
            }
            { n++; p[n] = $1; c[n] = $2
              if (m == "ops_per_s" ? $2 > $1 : $2 < $1) wins++ }
            END {
                sorted(p, ps, n); sorted(c, cs, n)
                pm = n > 1 ? quart(ps, n, 2) : ps[1]; cm = n > 1 ? quart(cs, n, 2) : cs[1]
                iqr = n > 1 ? quart(ps, n, 3) - quart(ps, n, 1) : 0
                gain = (m == "ops_per_s") ? cm - pm : pm - cm
                verdict = "(not judged)"
                if (m == claim) verdict = (wins * 10 >= n * 9 && gain > iqr) ? "CLAIM MET" : "CLAIM NOT MET"
                printf "%14.6g -> %-14.6g Q3-Q1 %-12.6g %d/%d  %+.1f %%  %s", pm, cm, iqr, wins, n, 100 * (cm - pm) / pm, verdict
            }' "$work/pairs-$m.txt")
        printf '  %-18s %s\n' "$m" "$line"
        case "$line" in *"CLAIM NOT MET"*) fail=1 ;; esac
    done
fi

if [ "$fail" -ne 0 ]; then
    echo "bench_pair: FAILED (against $ref: a count more than 1 % worse (alloc_kb_per_op on net-durable: 5 %), peak_rss_mb more than 15 % worse, another store, or the claim not met)" >&2
    exit 1
fi
echo "bench_pair: ok"
