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
set -eu

[ $# -gt 0 ] || set -- internal/*/ cmd/*/

total=0
for dir in "$@"; do
    dir=${dir%/}
    n=0
    for f in "$dir"/*.go; do
        case "$f" in
        *_test.go) continue ;;
        esac
        [ -f "$f" ] || continue
        n=$((n + $(wc -l <"$f")))
    done
    printf '%6d  %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
