#!/bin/sh
# vqed_chaos.sh — the kill-the-daemon drill and CI durability gate: boot
# vqed with fault injection armed (worker panics + stalls via VQED_FAULTS),
# drive it with `vqeload chaos` closed-loop load, and SIGKILL + restart the
# daemon on the same spool/port CHAOS_KILLS times mid-window. The drill
# gate then requires zero lost jobs (every acked submission answers its
# poll after recovery; a 404 is "lost", a 410 "evicted", and either
# fails), zero duplicate job ids, at least CHAOS_KILLS
# observed restarts, and energies bit-equal to uninterrupted in-process
# control runs of the same specs. Writes out/chaos_report.json and
# preserves the write-ahead journal as out/journal.wal (CI uploads both
# as artifacts).
set -eu

VQED_BIN=${VQED_BIN:-bin/vqed}
VQELOAD_BIN=${VQELOAD_BIN:-bin/vqeload}
KILLS=${CHAOS_KILLS:-3}
KILL_GAP=${CHAOS_KILL_GAP:-5}
DURATION=${CHAOS_DURATION:-25s}
CONCURRENCY=${CHAOS_CONCURRENCY:-3}
SETTLE=${CHAOS_SETTLE:-3m}
FAULTS=${CHAOS_FAULTS:-seed=7,panic=0.05,stall=0.03,stall_ms=500,max=6}
REPORT=${CHAOS_REPORT:-out/chaos_report.json}
JOURNAL_COPY=${CHAOS_JOURNAL:-out/journal.wal}
mkdir -p "$(dirname "$REPORT")" "$(dirname "$JOURNAL_COPY")"

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

# Tight stall timeout so injected 500ms stalls trip the watchdog quickly;
# retries absorb the injected panics.
DAEMON_FLAGS="-jobs 2 -retries 2 -stall-timeout 2s"

export VQED_FAULTS="$FAULTS"
# shellcheck disable=SC2086 # DAEMON_FLAGS is a flag list, splitting intended
start_vqed $DAEMON_FLAGS
echo "vqed up at $VQED_BASE (faults: $FAULTS)"
ADDR=${VQED_BASE#http://}

# reboot_vqed restarts the daemon on the SAME address and spool — that is
# the whole point: clients keep polling the base URL they already hold,
# and recovery must come from the journal in the spool, not fresh state.
reboot_vqed() {
    try=0
    while :; do
        "$VQED_BIN" -addr "$ADDR" -spool "$VQED_SPOOL" $DAEMON_FLAGS >>"$VQED_LOG" 2>&1 &
        VQED_PID=$!
        i=0
        until curl -fsS "$VQED_BASE/healthz" >/dev/null 2>&1; do
            if ! kill -0 "$VQED_PID" 2>/dev/null; then
                # bind race against the killed listener's socket — retry
                VQED_PID=
                break
            fi
            i=$((i + 1))
            [ "$i" -ge 100 ] && fail_with_log "restarted vqed never answered /healthz"
            sleep 0.2
        done
        [ -n "$VQED_PID" ] && return 0
        try=$((try + 1))
        [ "$try" -ge 5 ] && fail_with_log "vqed kept dying on restart"
        sleep 0.5
    done
}

"$VQELOAD_BIN" chaos -addr "$VQED_BASE" \
    -duration "$DURATION" -concurrency "$CONCURRENCY" -mix smoke \
    -settle-timeout "$SETTLE" -expect-restarts "$KILLS" -out "$REPORT" &
LOAD_PID=$!

n=0
while [ "$n" -lt "$KILLS" ]; do
    sleep "$KILL_GAP"
    n=$((n + 1))
    echo "chaos: SIGKILL cycle $n/$KILLS (pid $VQED_PID)"
    kill -KILL "$VQED_PID" 2>/dev/null || fail_with_log "vqed already dead before kill $n"
    wait "$VQED_PID" 2>/dev/null || true
    # Stay down long enough for the drill's health prober to witness the
    # outage (it counts down->up transitions against -expect-restarts).
    sleep 0.5
    reboot_vqed
    echo "chaos: vqed back up (pid $VQED_PID)"
done

rc=0
wait "$LOAD_PID" || rc=$?
LOAD_PID=

# Preserve the journal before cleanup removes the spool: it is the primary
# artifact for debugging a red gate (every accepted/running/retrying/done
# transition the daemon survived is in there).
if [ -f "$VQED_SPOOL/journal.wal" ]; then
    cp "$VQED_SPOOL/journal.wal" "$JOURNAL_COPY"
else
    echo "chaos: journal.wal missing from spool $VQED_SPOOL" >&2
    rc=1
fi

stop_vqed

if [ "$rc" -ne 0 ]; then
    fail_with_log "chaos drill failed (exit $rc; report: $REPORT)"
fi
echo "vqed chaos: ok ($KILLS SIGKILL cycles survived; report: $REPORT, journal: $JOURNAL_COPY)"
