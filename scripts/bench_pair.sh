#!/bin/sh
# Paired-seed count gate (ROADMAP 4a): run one dnsbench workload on a
# parent commit and on this checkout at the same seeds, and compare.
#
#   sh scripts/bench_pair.sh <parent-ref> <workload> [seeds]
#   sh scripts/bench_pair.sh HEAD~1 query-mix 1,2,3
#
# The counts a fixed seed repeats to 0.1 % on any box — allocs_per_op,
# alloc_kb_per_op, store_mb — fail the gate when the change is more than
# 1 % worse than the parent at any seed, as does a run whose correctness
# gate misses and a store_digest that differs from the parent's: the
# same seed must leave the same store, byte for byte. peak_rss_mb repeats
# to a few percent and is judged at BENCHMARK.json's 15 % bound. Timing
# is printed side by side and not judged: on a shared runner it spreads
# 10-20 % (cmd/dnsbench/NOISE.md), and a claim about it needs the ten
# alternating pairs of the benchmark contract, not one.
#
# The parent is exported with `git worktree` into a temporary directory
# and removed on exit; each side runs `go run ./cmd/dnsbench` from its
# own root, so each writes only under its own .bench_build/.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: sh scripts/bench_pair.sh <parent-ref> <workload> [seeds, default 1,2,3]" >&2
    exit 2
fi
ref=$1
workload=$2
seeds=$(printf '%s' "${3:-1,2,3}" | tr ',' ' ')

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
parent="$work/parent"
cleanup() {
    git -C "$root" worktree remove --force "$parent" >/dev/null 2>&1 || true
    rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 1' INT TERM
git -C "$root" worktree add --detach "$parent" "$ref" >/dev/null

# run <side> <dir> <seed>: the run's output, kept; a missed correctness
# gate (non-zero exit, or correct=false in the summary) fails the script.
run() {
    out="$work/$1-$3.txt"
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

fail=0
flip=0
for seed in $seeds; do
    # Alternate which side goes first, so neither always runs warm.
    if [ "$flip" -eq 0 ]; then
        run parent "$parent" "$seed"
        run change "$root" "$seed"
    else
        run change "$root" "$seed"
        run parent "$parent" "$seed"
    fi
    flip=$((1 - flip))
    p="$work/parent-$seed.txt"
    c="$work/change-$seed.txt"
    echo "== $workload, seed $seed: parent $ref vs change"
    # <metric>:<bound>, the share by which the change may be worse.
    for mb in allocs_per_op:0.01 alloc_kb_per_op:0.01 store_mb:0.01 peak_rss_mb:0.15; do
        m=${mb%:*}
        pv=$(metric "$p" "$m")
        cv=$(metric "$c" "$m")
        verdict=$(awk -v p="$pv" -v c="$cv" -v b="${mb#*:}" 'BEGIN { print (c > p * (1 + b)) ? "WORSE" : "ok" }')
        printf '  %-18s %14s -> %-14s %s\n' "$m" "$pv" "$cv" "$verdict"
        [ "$verdict" = ok ] || fail=1
    done
    for m in ops_per_s cpu_us_per_op latency_ms_p50 setup_s; do
        printf '  %-18s %14s -> %-14s (not judged)\n' "$m" "$(metric "$p" "$m")" "$(metric "$c" "$m")"
    done
    if [ -n "$(digest "$p")" ] && [ "$(digest "$p")" = "$(digest "$c")" ]; then
        echo "  store_digest       identical"
    else
        echo "  store_digest       DIFFERS: $(digest "$p") -> $(digest "$c")"
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "bench_pair: FAILED (against $ref: a count more than 1 % worse, peak_rss_mb more than 15 % worse, or another store)" >&2
    exit 1
fi
echo "bench_pair: ok"
