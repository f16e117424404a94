#!/bin/sh
# Paired A/B timing of Go benchmarks:
#
#   scripts/benchpair.sh <ref> <bench-regex> [pairs]
#
# Exports <ref> with git archive into a temporary directory under $TMPDIR,
# builds the test binary of that tree and of the working tree, then runs
# `go test -run '^$' -bench <bench-regex> -count 1` (as the compiled
# binaries) on the two sides in alternation, <pairs> times (default 10),
# swapping which side runs first from one pair to the next. For every
# matching benchmark it prints each pair's change/ref ns/op ratio, the
# median ratio, min..max, and the sign count: in how many pairs the change
# was faster. PKG (default .) picks the package; BENCHTIME, if set, is
# passed as -benchtime.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: $0 <ref> <bench-regex> [pairs]" >&2
    exit 2
fi
ref=$1
regex=$2
pairs=${3:-10}
pkg=${PKG:-.}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/benchpair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM HUP

mkdir "$tmp/ref"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"
(cd "$tmp/ref" && go test -c -o "$tmp/ref.test" "$pkg")
(cd "$root" && go test -c -o "$tmp/change.test" "$pkg")

# run <side>: one benchmark pass of that side's binary, from its package
# directory, appending "<side> <name> <ns/op>" lines to the results.
run() {
    if [ "$1" = ref ]; then dir=$tmp/ref; else dir=$root; fi
    (cd "$dir/$pkg" && "$tmp/$1.test" -test.run '^$' -test.bench "$regex" \
        -test.count 1 ${BENCHTIME:+-test.benchtime "$BENCHTIME"}) |
        awk -v side="$1" '/^Benchmark/ { for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") print side, $1, $i }' \
            >>"$tmp/results.$i"
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then run ref; run change; else run change; run ref; fi
    i=$((i + 1))
done

for name in $(cat "$tmp"/results.* | awk '{ print $2 }' | sort -u); do
    echo "$name (change/ref ns/op, $ref vs working tree)"
    i=1
    while [ "$i" -le "$pairs" ]; do
        awk -v name="$name" -v pair="$i" '$2 == name { ns[$1] = $3 }
            END { if (("ref" in ns) && ("change" in ns)) printf "%d %.0f %.0f %.4f\n", pair, ns["ref"], ns["change"], ns["change"] / ns["ref"] }' \
            "$tmp/results.$i"
        i=$((i + 1))
    done >"$tmp/pairs"
    awk '{ printf "  pair %2d  ref %12.0f  change %12.0f  ratio %.3f\n", $1, $2, $3, $4 }' "$tmp/pairs"
    sort -g -k4 "$tmp/pairs" | awk '{ r[NR] = $4; if ($4 < 1) won++ }
        END {
            if (NR == 0) { print "  no complete pairs"; exit }
            med = (NR % 2) ? r[(NR + 1) / 2] : (r[NR / 2] + r[NR / 2 + 1]) / 2
            printf "  median %.3f  min..max %.3f..%.3f  change faster in %d of %d pairs\n", med, r[1], r[NR], won, NR
        }'
done
