# daemon_lib.sh — shared helpers for the smoke scripts. Sourced, not
# executed; callers must `set -eu` and point VQED_BIN at a vqed binary.
#
# start_vqed [daemon flags...]
#   Boots vqed on a kernel-assigned free port (no hardcoded port to
#   collide with parallel CI jobs or a developer's own daemon), discovers
#   the address from the "serving on" log line, and waits for /healthz.
#   Fails fast — with the daemon's log tail — if the process dies or the
#   port never appears. Sets VQED_PID, VQED_BASE, VQED_LOG, VQED_SPOOL.
#
# stop_vqed
#   SIGTERMs the daemon and requires a clean drain (exit 0 plus the
#   "drained cleanly" log line).
#
# cleanup_vqed
#   Idempotent teardown for traps: kills the daemon if still up, removes
#   the spool and log.

VQED_PID=
VQED_BASE=
VQED_LOG=
VQED_SPOOL=

cleanup_vqed() {
    trap - EXIT INT TERM HUP
    if [ -n "$VQED_PID" ]; then
        kill "$VQED_PID" 2>/dev/null || true
        wait "$VQED_PID" 2>/dev/null || true
    fi
    [ -n "$VQED_SPOOL" ] && rm -rf "$VQED_SPOOL"
    [ -n "$VQED_LOG" ] && rm -f "$VQED_LOG"
}

fail_with_log() {
    echo "$1; vqed log tail:" >&2
    [ -n "$VQED_LOG" ] && tail -30 "$VQED_LOG" >&2
    exit 1
}

start_vqed() {
    VQED_SPOOL=$(mktemp -d)
    VQED_LOG=$(mktemp)
    "$VQED_BIN" -addr "${VQED_ADDR:-127.0.0.1:0}" -spool "$VQED_SPOOL" "$@" >"$VQED_LOG" 2>&1 &
    VQED_PID=$!

    # The daemon logs "serving on HOST:PORT" once the listener is bound;
    # with port 0 that line is the only way to learn the port.
    addr=
    i=0
    while [ -z "$addr" ]; do
        kill -0 "$VQED_PID" 2>/dev/null || fail_with_log "vqed exited during startup"
        addr=$(sed -n 's/.*serving on \([0-9.]*:[0-9]*\).*/\1/p' "$VQED_LOG" | head -1)
        [ -n "$addr" ] && break
        i=$((i + 1))
        [ "$i" -ge 100 ] && fail_with_log "vqed did not log its address within 20s"
        sleep 0.2
    done
    VQED_BASE="http://$addr"

    i=0
    until curl -fsS "$VQED_BASE/healthz" >/dev/null 2>&1; do
        kill -0 "$VQED_PID" 2>/dev/null || fail_with_log "vqed exited before answering /healthz"
        i=$((i + 1))
        [ "$i" -ge 100 ] && fail_with_log "vqed bound $addr but /healthz never answered"
        sleep 0.2
    done
}

stop_vqed() {
    # sh has no locals: a caller's own $rc (the drill's exit status in
    # vqed_chaos.sh) must survive this call, so the name is stop_rc.
    kill -TERM "$VQED_PID"
    stop_rc=0
    wait "$VQED_PID" || stop_rc=$?
    pid_done=$VQED_PID
    VQED_PID=
    if [ "$stop_rc" -ne 0 ]; then
        VQED_PID=$pid_done
        fail_with_log "vqed exited $stop_rc on SIGTERM"
    fi
    grep -q 'drained cleanly' "$VQED_LOG" || fail_with_log "missing clean-drain message"
}
