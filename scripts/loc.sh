#!/bin/sh
# loc.sh [-f] [rev [path...]] prints the non-test *.go lines of a revision,
# one row per package directory (-f: one row per file) and a total — the
# before/after tables simplification PRs put in CHANGES.md. It reads the
# revision with git ls-tree / git show, so nothing is checked out; rev "."
# counts the working tree instead (tracked and untracked-but-not-ignored).
#
#   scripts/loc.sh HEAD~1 internal/obs cmd/obscollect
#   scripts/loc.sh -f . internal/obs/collect
set -eu
cd "$(dirname "$0")/.."

key='{ sub(/\/[^\/]*$/, "", $2) }'
if [ "${1:-}" = "-f" ]; then
    key=''
    shift
fi
rev="${1:-HEAD}"
[ $# -gt 0 ] && shift

if [ "$rev" = "." ]; then
    git ls-files -co --exclude-standard -- "$@"
else
    git ls-tree -r --name-only "$rev" -- "$@"
fi | grep '\.go$' | grep -v '_test\.go$' | while read -r f; do
    if [ "$rev" = "." ]; then
        [ -f "$f" ] || continue # deleted in the working tree
        n=$(wc -l <"$f")
    else
        n=$(git show "$rev:$f" | wc -l)
    fi
    echo "$n $f"
done | awk "$key"'
    { lines[$2] += $1; total += $1 }
    END {
        for (k in lines) printf "%7d  %s\n", lines[k], k | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
    }'
