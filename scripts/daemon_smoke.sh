#!/bin/sh
# Daemon smoke test (part of `make verify`, under timeout 60):
#   - start mfoptd on a temp Unix socket
#   - run three concurrent clients: a normal solve, a mid-solve CANCEL,
#     and a malformed line (which must get a structured error while the
#     daemon stays up)
#   - re-send the solved instance under a new id: a cache hit, whose line
#     must equal the first answer's apart from the id and the cached flag
#   - SIGTERM the daemon and require exit 0 with a telemetry dump.
set -eu

MFOPT=${MFOPT:-_build/default/bin/mfopt.exe}
MFOPTD=${MFOPTD:-_build/default/bin/mfoptd.exe}
DIR=$(mktemp -d)
SOCK="$DIR/mfoptd.sock"
DPID=""
cleanup() {
    [ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT

"$MFOPT" generate -o "$DIR/small.txt" --tasks 10 --types 3 --machines 5 --seed 11 >/dev/null
# big enough that a 2M-node search runs for tens of seconds uncancelled
"$MFOPT" generate -o "$DIR/big.txt" --tasks 22 --types 4 --machines 10 --seed 7 >/dev/null

"$MFOPTD" --socket "$SOCK" --workers 4 2> "$DIR/daemon.log" &
DPID=$!

i=0
while [ ! -S "$SOCK" ] && [ $i -lt 50 ]; do sleep 0.1; i=$((i + 1)); done
[ -S "$SOCK" ] || { echo "daemon-smoke: socket never appeared"; exit 1; }

"$MFOPT" client --socket "$SOCK" "$DIR/small.txt" --id ok --node-budget 20000 > "$DIR/c1.out" &
C1=$!
"$MFOPT" client --socket "$SOCK" "$DIR/big.txt" --id kill --node-budget 2000000 \
    --cancel-after-ms 300 > "$DIR/c2.out" &
C2=$!
"$MFOPT" client --socket "$SOCK" --raw "FROBNICATE 1" > "$DIR/c3.out" &
C3=$!

wait $C1 || { echo "daemon-smoke: solve client failed"; cat "$DIR/c1.out"; exit 1; }
wait $C2 || { echo "daemon-smoke: cancel client failed"; cat "$DIR/c2.out"; exit 1; }
# the malformed client exits non-zero by design: its one response is an ERR
if wait $C3; then
    echo "daemon-smoke: malformed line did not produce an error"
    cat "$DIR/c3.out"
    exit 1
fi

grep -q "^OK ok " "$DIR/c1.out" || { echo "daemon-smoke: no OK response"; cat "$DIR/c1.out"; exit 1; }
grep -q "^CANCELLED kill$" "$DIR/c2.out" || { echo "daemon-smoke: no CANCELLED response"; cat "$DIR/c2.out"; exit 1; }
grep -q "^ERR - bad-verb" "$DIR/c3.out" || { echo "daemon-smoke: no structured error"; cat "$DIR/c3.out"; exit 1; }

"$MFOPT" client --socket "$SOCK" "$DIR/small.txt" --id ok2 --node-budget 20000 > "$DIR/c4.out" \
    || { echo "daemon-smoke: repeat client failed"; cat "$DIR/c4.out"; exit 1; }
grep -q "^OK ok2 .* cached=1 " "$DIR/c4.out" \
    || { echo "daemon-smoke: repeated solve was not a cache hit"; cat "$DIR/c4.out"; exit 1; }
HIT=$(sed 's/^OK ok2 /OK ok /; s/ cached=1 / cached=0 /' "$DIR/c4.out")
[ "$HIT" = "$(grep "^OK ok " "$DIR/c1.out")" ] || {
    echo "daemon-smoke: cache hit differs from the first answer"
    cat "$DIR/c1.out" "$DIR/c4.out"
    exit 1
}

kill -TERM "$DPID"
STATUS=0
wait "$DPID" || STATUS=$?
DPID=""
[ "$STATUS" -eq 0 ] || { echo "daemon-smoke: daemon exited $STATUS on SIGTERM"; cat "$DIR/daemon.log"; exit 1; }
grep -q "mfoptd telemetry" "$DIR/daemon.log" || { echo "daemon-smoke: no telemetry dump"; cat "$DIR/daemon.log"; exit 1; }

echo "daemon-smoke OK: solve, cache hit, cancel and malformed clients served; clean SIGTERM exit with telemetry"
