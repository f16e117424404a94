#!/bin/sh
# Negative test of the vqelint gate: inject two packages the suite must
# reject and assert `go vet -vettool` fails on each with the expected
# message. Guards against the gate silently going soft — a broken
# analyzer or a dropped stale-directive check would otherwise let real
# findings through while CI stays green.
#
#   unlock:  a mutex Lock not released on an early return (lockdiscipline)
#   stale:   a //vqelint:ignore that suppresses nothing (unused-ignore)
#
# Usage: VQELINT_BIN=bin/vqelint sh scripts/vqelint_negative.sh
set -eu

VQELINT_BIN=${VQELINT_BIN:-bin/vqelint}
FIXTURE_DIR=ci_negative_fixture

if [ ! -x "$VQELINT_BIN" ]; then
    echo "vqelint_negative: $VQELINT_BIN not built" >&2
    exit 1
fi
case "$VQELINT_BIN" in
/*) ;;
*) VQELINT_BIN=$(pwd)/$VQELINT_BIN ;;
esac

cleanup() { rm -rf "$FIXTURE_DIR"; }
trap cleanup EXIT INT TERM

# expect_failure <name> <message>: go vet must exit non-zero on the
# fixture package <name> and print <message>.
expect_failure() {
    status=0
    out=$(go vet -vettool="$VQELINT_BIN" "./$FIXTURE_DIR/$1/" 2>&1) || status=$?
    if [ "$status" -eq 0 ]; then
        echo "vqelint_negative: go vet passed the $1 fixture; want a failure" >&2
        exit 1
    fi
    case "$out" in
    *"$2"*) ;;
    *)
        echo "vqelint_negative: $1 fixture failed without \"$2\":" >&2
        echo "$out" >&2
        exit 1
        ;;
    esac
    echo "vqelint_negative: gate correctly fails the $1 fixture"
}

mkdir -p "$FIXTURE_DIR/unlock" "$FIXTURE_DIR/stale"
cat > "$FIXTURE_DIR/unlock/fixture.go" <<'EOF'
// Package unlock is an injected vqelint negative-gate fixture: the Lock
// below is not released on the early-return path, which lockdiscipline
// must report. This package only exists for the duration of the check.
package unlock

import "sync"

type box struct {
	mu sync.Mutex
	n  int
}

func (b *box) bump(limit int) int {
	b.mu.Lock()
	if b.n >= limit {
		return b.n // leaks b.mu
	}
	b.n++
	b.mu.Unlock()
	return b.n
}
EOF
cat > "$FIXTURE_DIR/stale/fixture.go" <<'EOF'
// Package stale is an injected vqelint negative-gate fixture: the
// directive below suppresses nothing, which the suite must report. This
// package only exists for the duration of the check.
package stale

func sum(a, b int) int {
	//vqelint:ignore floatcompare there is no float comparison here
	return a + b
}
EOF

expect_failure unlock "lockdiscipline: b.mu.Lock is not released on every path"
expect_failure stale "unused-ignore: stale //vqelint:ignore floatcompare"
