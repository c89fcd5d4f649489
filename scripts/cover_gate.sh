#!/bin/sh
# Coverage gate: the wire-facing packages must stay well tested. The
# frame decoder, the transport state machines (reconnect, overload,
# drain, WAL spill/dedup), the write-ahead log with its crash-recovery
# scan, the fleet ring and router, the snapshot store with its binary
# columnar codec, the query HTTP surface, and the active probe engine
# (cache, singleflight, rate limits, retry ladder), and the streaming
# detection layer (partitioned heavy-hitter/NOD state whose serial and
# sharded deployments must merge byte-identically), the encrypted
# client-leg model with its observation codec, and the command plumbing
# (internal/cli: the sensor and fleet dial path of dnsgen and dnsprobe,
# and the sticky-error sink that keeps a truncated stream from exiting 0),
# and the spine (the one engine → store → settle pipeline whose checkpoint
# order is the journal's durability contract) are exactly the code that fails in production in ways unit demos never
# hit, so CI refuses any change that drops their statement coverage
# below the floor.
#
# Run from the repository root: sh scripts/cover_gate.sh
set -eu

FLOOR=80

fail=0
for pkg in ./internal/transport/ ./internal/wal/ ./internal/fleet/ ./internal/sie/ ./internal/tsv/ ./internal/webui/ ./internal/probe/ ./internal/detect/ ./internal/encwire/ ./internal/cli/ ./internal/spine/; do
    out=$("$(command -v go)" test -count=1 -cover "$pkg" 2>&1) || {
        printf '%s\n' "$out" >&2
        echo "cover gate: tests failed in $pkg" >&2
        exit 1
    }
    pct=$(printf '%s\n' "$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pct" ]; then
        echo "cover gate: no coverage figure for $pkg" >&2
        fail=1
        continue
    fi
    # Integer compare on the whole part: 79.9 fails, 80.0 passes.
    whole=${pct%.*}
    if [ "$whole" -lt "$FLOOR" ]; then
        echo "cover gate: $pkg at ${pct}% is below the ${FLOOR}% floor" >&2
        fail=1
    else
        echo "cover gate: $pkg ${pct}% (floor ${FLOOR}%)"
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "cover gate: FAILED" >&2
    exit 1
fi
echo "cover gate: ok"
