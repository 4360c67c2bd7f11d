#!/bin/sh
# results/ drift check: builds cmd/nanobus, regenerates committed outputs
# under results/ and byte-compares each with its committed file. Any
# difference fails the run and prints the diff, so a change that moves a
# reproduced number cannot land without regenerating results/ on purpose.
#
# The default set (table1, dtheta, sec33, fig5) takes seconds. -full adds
# the Fig. 3 sweep at 20M cycles (`fig3 -cycles 20000000 -detail`, a few
# minutes on a 2-core machine).
# Usage: scripts/results_drift.sh [-full]
set -eu
cd "$(dirname "$0")/.."

full=0
case "${1:-}" in
    "") ;;
    -full) full=1 ;;
    *) echo "usage: $0 [-full]" >&2; exit 2 ;;
esac

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

go build -o "$tmp/nanobus" ./cmd/nanobus

fail=0
# check FILE ARGS...: regenerate results/FILE with `nanobus ARGS...`.
check() {
    file=$1
    shift
    "$tmp/nanobus" "$@" > "$tmp/$file"
    if cmp -s "results/$file" "$tmp/$file"; then
        echo "ok    results/$file  (nanobus $*)"
    else
        echo "DRIFT results/$file  (nanobus $*)"
        diff "results/$file" "$tmp/$file" || true
        fail=1
    fi
}

check table1.txt table1
check dtheta.txt dtheta
check sec33.txt sec33
check fig5.txt fig5
if [ "$full" = 1 ]; then
    check fig3_full.txt fig3 -cycles 20000000 -detail
fi

if [ "$fail" != 0 ]; then
    echo "results drift: FAIL" >&2
    exit 1
fi
echo "results drift: PASS"
