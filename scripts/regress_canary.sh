#!/bin/sh
# Regression-gate canary (part of `make verify`, after bench-regress):
# shows that `bench/main.exe --regress` detects a broken committed
# reference.  Four tampered copies of the three BENCH files the gate
# reads from its working directory:
#   - tight:     one exact-search reference tightened past its bound
#   - missing:   one committed row deleted
#   - lp-pivots: the n=200 splitting-LP pivot reference tightened past
#                its bound, so a pivot regression in the LP core fails
#   - dynamic:   one re-mapped throughput reference of the dynamic
#                simulation moved past its bound, so a change in the
#                simulator's or the re-mapper's behaviour fails
# The gate must exit with status exactly 1 on each; an uncaught exception
# (status 2) is a crash, not a detection.
set -eu

BENCH=$(pwd)/_build/default/bench/main.exe
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

# tamper NAME FILE SED-SCRIPT: copy the BENCH files into $DIR/NAME and
# apply SED-SCRIPT to FILE there, failing if it changed nothing.
tamper() {
    mkdir "$DIR/$1"
    cp BENCH_lp.json BENCH_exact.json BENCH_dynamic.json "$DIR/$1/"
    sed "$3" "$2" > "$DIR/$1/$2"
    if cmp -s "$2" "$DIR/$1/$2"; then
        echo "regress-canary: tampering '$1' changed nothing"
        exit 1
    fi
}

# 4141 nodes against a reference of 1000: 4141 > 1000 x 1.15 + 0.5
tamper tight BENCH_exact.json 's/"check": "exact.n14.nodes", "value": [0-9]*/"check": "exact.n14.nodes", "value": 1000/'
tamper missing BENCH_exact.json '/"check": "exact.n16.lp_solves"/d'
# 778 pivots against a reference of 400: 778 > 400 x 1.5 + 0.5
tamper lp-pivots BENCH_lp.json 's/"check": "lp.n200.pivots", "value": [0-9]*/"check": "lp.n200.pivots", "value": 400/'
# x = 0.964355 against a reference of 0.9: more than 0.02 away
tamper dynamic BENCH_dynamic.json 's/"check": "dynamic.seed1.remap_x", "value": [0-9.]*/"check": "dynamic.seed1.remap_x", "value": 0.900000/'

for case in tight missing lp-pivots dynamic; do
    STATUS=0
    (cd "$DIR/$case" && "$BENCH" --regress > gate.log 2>&1) || STATUS=$?
    if [ "$STATUS" -ne 1 ]; then
        echo "regress-canary: gate exited $STATUS on the '$case' copy (want 1)"
        cat "$DIR/$case/gate.log"
        exit 1
    fi
done

echo "regress-canary OK: the gate exits 1 on a tightened exact reference, a deleted row, a tightened LP pivot reference and a moved dynamic throughput reference"
