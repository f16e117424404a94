#!/bin/sh
# vqed_sweep_smoke.sh — the sweep-family durability gate: boot vqed with a
# single worker, POST a dense H2 bond-scan family to /v1/sweeps, attach a
# `vqeload sweep` observer that continuously asserts monotone completion
# (the done set must always be a prefix of the value-ascending execution
# order), then SIGKILL the daemon mid-curve and restart it on the same
# address and spool. The gate requires the family to survive the crash
# (no 404 after restart), resume with only the unfinished points re-run,
# and settle with every point done exactly once. Writes the final family
# view — the full dissociation curve — to out/sweep_curve.json (CI uploads it
# as an artifact).
set -eu

VQED_BIN=${VQED_BIN:-bin/vqed}
VQELOAD_BIN=${VQELOAD_BIN:-bin/vqeload}
CURVE_OUT=${SWEEP_CURVE:-out/sweep_curve.json}
mkdir -p "$(dirname "$CURVE_OUT")"
# Nelder–Mead with a generous budget, snapshotting every iteration
# (checkpoint_every 1 overrides the daemon's one-second floor), keeps each
# point slow enough (~tens of ms) that the SIGKILL reliably lands
# mid-curve, and leaves the point in flight a snapshot to resume from.
SWEEP_SPEC='{"base":{"molecule":{"kind":"h2"},"optimizer":{"method":"nelder-mead","max_iter":400},"resilience":{"checkpoint_every":1}},"axis":{"param":"distance","start":0.4,"stop":2.0,"step":0.01}}'
POINTS=161
KILL_AFTER=${SWEEP_KILL_AFTER:-15}

. "$(dirname "$0")/daemon_lib.sh"
LOAD_PID=

cleanup_all() {
    if [ -n "$LOAD_PID" ]; then
        kill "$LOAD_PID" 2>/dev/null || true
        wait "$LOAD_PID" 2>/dev/null || true
    fi
    cleanup_vqed
}
trap cleanup_all EXIT INT TERM HUP

# One worker: the family must make progress strictly in axis order for the
# observer's prefix assertion to be airtight.
DAEMON_FLAGS="-jobs 1"
# shellcheck disable=SC2086 # DAEMON_FLAGS is a flag list, splitting intended
start_vqed $DAEMON_FLAGS
echo "vqed up at $VQED_BASE"
ADDR=${VQED_BASE#http://}

# done_count reads the family's aggregate done counter from the listing
# view (which elides the per-point detail, keeping the parse trivial).
done_count() {
    curl -fsS "$VQED_BASE/v1/sweeps" 2>/dev/null |
        sed -n 's/.*"done": *\([0-9]*\).*/\1/p' | head -1
}

resp=$(curl -fsS -X POST -d "$SWEEP_SPEC" "$VQED_BASE/v1/sweeps") ||
    fail_with_log "sweep submission failed"
SWEEP_ID=$(printf '%s' "$resp" | sed -n 's/.*"id": *"\(sweep-[0-9]*\)".*/\1/p' | head -1)
[ -n "$SWEEP_ID" ] || fail_with_log "no sweep id in response: $resp"
echo "sweep $SWEEP_ID accepted ($POINTS points)"

# The observer polls the family to terminal, asserting the prefix-order
# invariant on every observation and tolerating the restart window.
"$VQELOAD_BIN" sweep -addr "$VQED_BASE" -attach "$SWEEP_ID" \
    -assert-order -poll 100ms -tolerate 60s -timeout 5m -out "$CURVE_OUT" &
LOAD_PID=$!

# Wait until the curve is demonstrably mid-flight, then SIGKILL.
i=0
while :; do
    d=$(done_count || true)
    [ -n "$d" ] && [ "$d" -ge "$KILL_AFTER" ] && break
    [ -n "$d" ] && [ "$d" -ge "$POINTS" ] &&
        fail_with_log "family finished before the kill could land (done=$d)"
    i=$((i + 1))
    [ "$i" -ge 600 ] && fail_with_log "family never reached $KILL_AFTER done points"
    sleep 0.1
done
D_KILL=$d
echo "sweep smoke: SIGKILL at $D_KILL/$POINTS points done (pid $VQED_PID)"
kill -KILL "$VQED_PID" 2>/dev/null || fail_with_log "vqed already dead before the kill"
wait "$VQED_PID" 2>/dev/null || true
sleep 0.5

# Restart on the SAME address and spool; recovery must come from the
# journal. A bind race against the dead listener's socket is retried.
try=0
while :; do
    # shellcheck disable=SC2086
    "$VQED_BIN" -addr "$ADDR" -spool "$VQED_SPOOL" $DAEMON_FLAGS >>"$VQED_LOG" 2>&1 &
    VQED_PID=$!
    j=0
    until curl -fsS "$VQED_BASE/healthz" >/dev/null 2>&1; do
        if ! kill -0 "$VQED_PID" 2>/dev/null; then
            VQED_PID=
            break
        fi
        j=$((j + 1))
        [ "$j" -ge 100 ] && fail_with_log "restarted vqed never answered /healthz"
        sleep 0.2
    done
    [ -n "$VQED_PID" ] && break
    try=$((try + 1))
    [ "$try" -ge 5 ] && fail_with_log "vqed kept dying on restart"
    sleep 0.5
done
echo "sweep smoke: vqed back up (pid $VQED_PID)"

# The journal must have replayed the family with no finished point lost.
curl -fsS "$VQED_BASE/v1/sweeps/$SWEEP_ID" >/dev/null 2>&1 ||
    fail_with_log "sweep $SWEEP_ID lost across the restart"
D_REPLAY=$(done_count || true)
[ -n "$D_REPLAY" ] || fail_with_log "no done count after restart"
[ "$D_REPLAY" -ge "$D_KILL" ] ||
    fail_with_log "restart lost points: $D_KILL done before kill, $D_REPLAY after replay"
echo "sweep smoke: replay restored $D_REPLAY done points (>= $D_KILL at kill)"

# The observer gates the rest: monotone completion throughout, zero lost
# or duplicated points, terminal status done.
rc=0
wait "$LOAD_PID" || rc=$?
LOAD_PID=
[ "$rc" -eq 0 ] || fail_with_log "sweep observer failed (exit $rc)"

grep -c '"status": "done"' "$CURVE_OUT" >/dev/null ||
    fail_with_log "no curve written to $CURVE_OUT"

stop_vqed
echo "vqed sweep smoke: ok (killed at $D_KILL/$POINTS, resumed to completion; curve: $CURVE_OUT)"
