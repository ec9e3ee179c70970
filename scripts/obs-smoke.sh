#!/bin/sh
# obs-smoke: end-to-end check of the observability surface against real
# binaries. Boots lmpd on ephemeral ports, drives traffic with lmpctl,
# then asserts:
#
#   - /metrics serves Prometheus text and its metric names match the
#     golden list (internal/daemon/testdata/metrics.golden) exactly, so
#     a renamed or dropped metric fails loudly instead of silently
#     breaking dashboards;
#   - /stats serves the typed JSON snapshot with moving counters;
#   - a free shows up as memory handed back: lmp_memnode_dropped_bytes_total
#     counts it and lmp_memnode_resident_bytes falls;
#   - a grant is made resident before anyone writes it: an unwritten 4 MiB
#     extent raises lmp_memnode_resident_bytes by the 2 MiB huge page it
#     wholly contains within 2 s (skipped on kernels before 5.14, which
#     lack MADV_POPULATE_WRITE);
#   - /spans holds what lmpd traces of untraced traffic and nothing
#     else: a failed request (a read beyond the shared region) is there
#     as an rpc.read span with "err": true, and every span it holds
#     failed or took at least the -slowop threshold of 1ms;
#   - /debug/pprof/cmdline answers 200;
#   - `lmpctl stats` renders the per-method table.
#
# Run from the repo root (`make obs-smoke`). Exit 0 on success.
set -u

GOLDEN=internal/daemon/testdata/metrics.golden
TMP=$(mktemp -d)
LMPD_PID=

cleanup() {
    [ -n "$LMPD_PID" ] && kill "$LMPD_PID" 2>/dev/null
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
    echo "obs-smoke: FAIL: $*" >&2
    [ -f "$TMP/lmpd.log" ] && sed 's/^/  lmpd: /' "$TMP/lmpd.log" >&2
    exit 1
}

command -v curl >/dev/null 2>&1 || fail "curl not installed"

go build -o "$TMP/lmpd" ./cmd/lmpd || fail "building lmpd"
go build -o "$TMP/lmpctl" ./cmd/lmpctl || fail "building lmpctl"

"$TMP/lmpd" -listen 127.0.0.1:0 -ops 127.0.0.1:0 -slowop 1ms \
    >"$TMP/lmpd.log" 2>&1 &
LMPD_PID=$!

# Wait for both listeners to announce themselves.
i=0
while ! grep -q "lmpd ops on" "$TMP/lmpd.log" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && fail "lmpd did not start in 5s"
    kill -0 "$LMPD_PID" 2>/dev/null || fail "lmpd exited early"
    sleep 0.1
done
DATA_ADDR=$(awk '/serving .* bytes shared/ {print $NF}' "$TMP/lmpd.log")
OPS_URL=$(sed -n 's|.*lmpd ops on \(http://[^ ]*\).*|\1|p' "$TMP/lmpd.log")
[ -n "$DATA_ADDR" ] || fail "could not parse data address from lmpd output"
[ -n "$OPS_URL" ] || fail "could not parse ops URL from lmpd output"

# Drive traffic so the counters the golden list names actually move.
OFF=$("$TMP/lmpctl" -server "$DATA_ADDR" alloc 1048576 | sed 's/offset=//') \
    || fail "lmpctl alloc"
"$TMP/lmpctl" -server "$DATA_ADDR" write "$OFF" "obs smoke" >/dev/null \
    || fail "lmpctl write"
"$TMP/lmpctl" -server "$DATA_ADDR" read "$OFF" 9 >/dev/null \
    || fail "lmpctl read"
"$TMP/lmpctl" -server "$DATA_ADDR" stats >"$TMP/ctl-stats.json" \
    || fail "lmpctl stats"
grep -q '"rpc.write"' "$TMP/ctl-stats.json" \
    || fail "lmpctl stats missing per-method table"

# /metrics: Prometheus text whose metric-name set matches the golden.
curl -fsS "$OPS_URL/metrics" >"$TMP/metrics.txt" || fail "GET /metrics"
grep -v '^#' "$TMP/metrics.txt" | awk '{print $1}' | sed 's/{.*//' \
    | sort -u >"$TMP/metrics.names"
diff -u "$GOLDEN" "$TMP/metrics.names" \
    || fail "exported metric names diverge from $GOLDEN (regenerate it if the change is intentional)"
awk '$1 == "lmp_rpc_requests" && $2+0 > 0 {found=1} END {exit !found}' "$TMP/metrics.txt" \
    || fail "lmp_rpc_requests did not count the lmpctl traffic"

# /stats: typed JSON snapshot with the traffic reflected.
curl -fsS "$OPS_URL/stats" >"$TMP/stats.json" || fail "GET /stats"
grep -q '"in_use": 1048576' "$TMP/stats.json" \
    || fail "/stats does not reflect the allocation"

# A free hands the memory back, and an operator can see it: write into a
# second 1 MiB extent, free it, and compare two scrapes.
gauge() { awk -v n="$1" '$1 == n {print $2}' "$2"; }
OFF2=$("$TMP/lmpctl" -server "$DATA_ADDR" alloc 1048576 | sed 's/offset=//') \
    || fail "lmpctl alloc (second extent)"
"$TMP/lmpctl" -server "$DATA_ADDR" write "$OFF2" "$(head -c 65536 /dev/zero | tr '\0' x)" >/dev/null \
    || fail "lmpctl write (second extent)"
curl -fsS "$OPS_URL/metrics" >"$TMP/metrics.full" || fail "GET /metrics"
"$TMP/lmpctl" -server "$DATA_ADDR" free "$OFF2" >/dev/null || fail "lmpctl free"
curl -fsS "$OPS_URL/metrics" >"$TMP/metrics.freed" || fail "GET /metrics"
[ "$(gauge lmp_memnode_dropped_bytes_total "$TMP/metrics.freed")" = 1048576 ] \
    || fail "lmp_memnode_dropped_bytes_total does not count the freed extent"
if [ "$(uname -s)" = Linux ]; then
    [ "$(gauge lmp_memnode_resident_bytes "$TMP/metrics.freed")" -lt "$(gauge lmp_memnode_resident_bytes "$TMP/metrics.full")" ] \
        || fail "lmp_memnode_resident_bytes did not fall across the free"

    # A grant is populated off the data path: the 4 MiB extent lands at
    # 1 MiB (first fit, where the freed extent was) and wholly contains
    # the huge page [2 MiB, 4 MiB); nothing writes it.
    KVER=$(uname -r | awk -F. '{print $1 * 1000 + $2}')
    if [ "$KVER" -lt 5014 ]; then
        echo "obs-smoke: skipping the populate check: kernel $(uname -r) is older than 5.14 (no MADV_POPULATE_WRITE)"
    else
        BEFORE=$(gauge lmp_memnode_resident_bytes "$TMP/metrics.freed")
        "$TMP/lmpctl" -server "$DATA_ADDR" alloc 4194304 >/dev/null \
            || fail "lmpctl alloc (unwritten extent)"
        i=0
        while :; do
            curl -fsS "$OPS_URL/metrics" >"$TMP/metrics.granted" || fail "GET /metrics"
            [ "$(gauge lmp_memnode_resident_bytes "$TMP/metrics.granted")" -ge $((BEFORE + 2097152)) ] && break
            i=$((i + 1))
            [ "$i" -gt 20 ] \
                && fail "lmp_memnode_resident_bytes did not rise by 2 MiB within 2 s of granting an unwritten 4 MiB extent"
            sleep 0.1
        done
    fi
fi

# /spans: the untraced lmpctl traffic left a span only where it failed or
# was slow. One read beyond the shared region fails on purpose.
SHARED=$(awk '/serving .* bytes shared/ {print $4}' "$TMP/lmpd.log")
[ -n "$SHARED" ] || fail "could not parse the shared size from lmpd output"
if "$TMP/lmpctl" -server "$DATA_ADDR" read "$SHARED" 9 >/dev/null 2>&1; then
    fail "lmpctl read beyond the shared region succeeded"
fi
curl -fsS "$OPS_URL/spans" >"$TMP/spans.json" || fail "GET /spans"
awk '
    /^  \{/ { op = ""; err = 0; dur = 0 }
    /"op":/ { op = $2 }
    /"duration_ns":/ { dur = $2 + 0 }
    /"err": true/ { err = 1 }
    /^  \}/ {
        if (op == "\"rpc.read\"," && err) readerr = 1
        if (!err && dur < 1000000) { print "obs-smoke: kept a fast, successful span: " op " " dur "ns" > "/dev/stderr"; bad = 1 }
    }
    END { if (!readerr) print "obs-smoke: no failed rpc.read span" > "/dev/stderr"; exit !(readerr && !bad) }
' "$TMP/spans.json" || fail "/spans holds a span that neither failed nor was slow, or lacks the failed read"

# /debug/pprof: the profile surface answers.
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$OPS_URL/debug/pprof/cmdline")
[ "$CODE" = "200" ] || fail "/debug/pprof/cmdline returned $CODE"

echo "obs-smoke: ok (data=$DATA_ADDR ops=$OPS_URL)"
