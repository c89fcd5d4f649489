#!/bin/sh
# Non-test Go lines per package: *.go minus *_test.go, by wc -l. The
# figures ROADMAP and CHANGES.md quote for "less code" come from here, so
# both sides of a comparison are counted the same way. Print-only: there
# is no ceiling to configure.
#
# Run from the root of the tree to count (a checkout, or a `git archive`
# export of the commit to compare with):
#
#   sh scripts/loc.sh                      # every internal/* and cmd/*
#   sh scripts/loc.sh internal/observatory internal/tsv
#
# With --against <ref> it counts <ref> too — exported with `git archive`
# into a temporary directory, as bench_pair.sh exports its parent, and
# removed on exit — and prints parent, change and the difference per
# package and in total: the table a simplicity PR quotes.
#
#   sh scripts/loc.sh --against HEAD~1 internal/bloom internal/spacesaving
set -eu

ref=
if [ "${1:-}" = --against ]; then
    [ $# -ge 2 ] || { echo "usage: sh scripts/loc.sh [--against <ref>] [dir...]" >&2; exit 2; }
    ref=$2
    shift 2
fi
[ $# -gt 0 ] || set -- internal/*/ cmd/*/

# count <root> <dir>: non-test Go lines of <root>/<dir>; 0 when the
# directory is not there (a package one side does not have).
count() {
    n=0
    for f in "$1/$2"/*.go; do
        case "$f" in
        *_test.go) continue ;;
        esac
        [ -f "$f" ] || continue
        n=$((n + $(wc -l <"$f")))
    done
    echo "$n"
}

if [ -z "$ref" ]; then
    total=0
    for dir in "$@"; do
        dir=${dir%/}
        n=$(count . "$dir")
        printf '%6d  %s\n' "$n" "$dir"
        total=$((total + n))
    done
    printf '%6d  total\n' "$total"
    exit 0
fi

parent=$(mktemp -d)
trap 'rm -rf "$parent"' EXIT
trap 'exit 1' INT TERM
git archive "$ref" | tar -x -C "$parent"

printf '%6s  %6s  %6s  %s\n' parent change delta dir
ptotal=0
ctotal=0
for dir in "$@"; do
    dir=${dir%/}
    p=$(count "$parent" "$dir")
    c=$(count . "$dir")
    printf '%6d  %6d  %+6d  %s\n' "$p" "$c" $((c - p)) "$dir"
    ptotal=$((ptotal + p))
    ctotal=$((ctotal + c))
done
printf '%6d  %6d  %+6d  total\n' "$ptotal" "$ctotal" $((ctotal - ptotal))
