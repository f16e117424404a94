#!/bin/sh
# vqeload end-to-end smoke and the CI latency gate: boot vqed on a free
# port, drive it with a closed-loop vqeload run over the smoke mix, gate
# on end-to-end p99 and SLO attainment, and require a clean drain. Writes
# out/load_report.json (CI uploads it as an artifact) and appends the
# markdown latency table to $GITHUB_STEP_SUMMARY when set.
set -eu

VQED_BIN=${VQED_BIN:-bin/vqed}
VQELOAD_BIN=${VQELOAD_BIN:-bin/vqeload}
DURATION=${LOAD_DURATION:-30s}
CONCURRENCY=${LOAD_CONCURRENCY:-4}
FAIL_P99=${LOAD_FAIL_P99:-2s}
MIN_SLO=${LOAD_MIN_SLO:-0.95}
REPORT=${LOAD_REPORT:-out/load_report.json}
mkdir -p "$(dirname "$REPORT")"

. "$(dirname "$0")/daemon_lib.sh"
trap cleanup_vqed EXIT INT TERM HUP

start_vqed -jobs "$CONCURRENCY"
echo "vqed up at $VQED_BASE"

"$VQELOAD_BIN" run -addr "$VQED_BASE" \
    -mode closed -concurrency "$CONCURRENCY" -duration "$DURATION" \
    -mix smoke -slo 5s -report "$REPORT" \
    -fail-p99 "$FAIL_P99" -min-slo "$MIN_SLO"

if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    "$VQELOAD_BIN" report -in "$REPORT" -md >>"$GITHUB_STEP_SUMMARY"
fi

stop_vqed
echo "vqeload smoke: ok (report: $REPORT)"
