#!/usr/bin/env bash
# End-to-end smoke of the TCP front end (`rmts-cli serve`):
#
#   1. start a snapshot-backed server, drive a bounded burst of real
#      requests at low rate — expect zero shed and zero typed errors;
#   2. refuse-typed past the bound: with a 1-connection pool, a second
#      client must receive a typed `overloaded` error line, not a drop;
#   3. stop gracefully (stdin EOF), restart from the written snapshot,
#      re-ask the same questions — the stderr stats must prove the warm
#      start (every request a memo hit, zero misses).
#
# Pure bash + /dev/tcp: no extra tooling in CI.
set -euo pipefail

cd "$(dirname "$0")/.."

CLI=${RMTS_CLI:-target/release/rmts-cli}
if [[ ! -x "$CLI" ]]; then
    echo "building release CLI..."
    cargo build --release --bin rmts-cli
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
SNAP="$WORK/memo.snap"
PORT=$(( 20000 + RANDOM % 20000 ))
ADDR="127.0.0.1:$PORT"
BURST=16

# One fixed v1 request line, plus variants (distinct periods) for the burst.
req() {
    local k=$1
    printf '{"taskset":[[1,%d],[2,%d],[2,%d],[4,%d]],"m":2,"algorithm":"RmTsLight","policy":null,"budget":{"deadline_ms":null,"max_iterations":null,"max_probes":null,"horizon_cap":null},"degrade":false}' \
        $((4*k)) $((8*k)) $((8*k)) $((16*k))
}

start_server() { # args: extra serve flags...; stdin of the server is $WORK/ctl
    : > "$WORK/ctl.open"
    # Keep a writer fd on the fifo for the server's lifetime; closing it
    # later delivers stdin EOF = graceful stop.
    rm -f "$WORK/ctl"; mkfifo "$WORK/ctl"
    "$CLI" serve --addr "$ADDR" --shards 2 --snapshot "$SNAP" "$@" \
        < "$WORK/ctl" > "$WORK/stdout.log" 2> "$WORK/stderr.log" &
    SERVER_PID=$!
    exec 8> "$WORK/ctl"
    for _ in $(seq 1 100); do
        grep -q "listening on" "$WORK/stdout.log" 2>/dev/null && return 0
        sleep 0.1
    done
    echo "FAIL: server did not start"; cat "$WORK/stderr.log"; exit 1
}

stop_server() {
    exec 8>&-   # stdin EOF -> graceful drain + snapshot
    wait "$SERVER_PID"
}

echo "== phase 1: bounded burst at low rate (expect zero shed) =="
start_server --clients 4
exec 9<>"/dev/tcp/127.0.0.1/$PORT"
for k in $(seq 1 $BURST); do
    req "$k" >&9; printf '\n' >&9
    IFS= read -r response <&9
    case "$response" in
        *'"error"'*) echo "FAIL: typed error at low rate: $response"; exit 1 ;;
        *'"memo_hit":false'*) ;; # fresh analysis, as expected cold
        *) echo "FAIL: unexpected response: $response"; exit 1 ;;
    esac
done
exec 9<&- 9>&-
stop_server
grep -q "served $BURST request(s)" "$WORK/stderr.log" \
    || { echo "FAIL: burst not fully served"; cat "$WORK/stderr.log"; exit 1; }
grep -q "0 degraded, 0 overloaded, 0 rate-limited" "$WORK/stderr.log" \
    || { echo "FAIL: shed at low rate"; cat "$WORK/stderr.log"; exit 1; }
[[ -s "$SNAP" ]] || { echo "FAIL: no snapshot written"; exit 1; }
echo "   OK: $BURST served, zero shed, snapshot written ($(wc -c < "$SNAP") bytes)"

echo "== phase 2: past the bound -> typed overloaded, not a drop =="
start_server --clients 1
exec 9<>"/dev/tcp/127.0.0.1/$PORT"   # occupies the whole pool
sleep 0.3
exec 7<>"/dev/tcp/127.0.0.1/$PORT"   # must be refused *typed*
IFS= read -r refusal <&7 || { echo "FAIL: refused connection got no line"; exit 1; }
case "$refusal" in
    *'"error":"overloaded"'*) echo "   OK: typed refusal: $refusal" ;;
    *) echo "FAIL: expected typed overloaded line, got: $refusal"; exit 1 ;;
esac
exec 7<&- 7>&- 9<&- 9>&-
stop_server
grep -q "1 rejected connection(s)" "$WORK/stderr.log" \
    || { echo "FAIL: rejection not counted"; cat "$WORK/stderr.log"; exit 1; }

echo "== phase 3: restart from snapshot -> warm start (all memo hits) =="
start_server --clients 4
grep -q "snapshot restore: $BURST memo entries restored" "$WORK/stderr.log" \
    || { echo "FAIL: snapshot not restored"; cat "$WORK/stderr.log"; exit 1; }
exec 9<>"/dev/tcp/127.0.0.1/$PORT"
for k in $(seq 1 $BURST); do
    req "$k" >&9; printf '\n' >&9
    IFS= read -r response <&9
    case "$response" in
        *'"memo_hit":true'*) ;;
        *) echo "FAIL: request $k not served warm: $response"; exit 1 ;;
    esac
done
exec 9<&- 9>&-
stop_server
grep -q "$BURST memo hit(s), 0 miss(es)" "$WORK/stderr.log" \
    || { echo "FAIL: warm-start counters wrong"; cat "$WORK/stderr.log"; exit 1; }
echo "   OK: all $BURST requests answered from the restored memo"

echo
echo "net smoke: all phases passed"
