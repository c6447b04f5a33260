#!/bin/sh
# dist_smoke.sh — end-to-end smoke test for distributed sweep execution,
# run by `make dist-smoke` (part of `make check`).
#
# Builds cmd/figures and the cmd/macrosim worker binary, runs a tiny
# figure-6 panel (uniform pattern, point-to-point network, quick windows)
# serially as the reference, then three distributed ways:
#
#   1. two spawned pipe workers (-dist-workers 2)
#   2. one TCP worker (`macrosim -connect`) against a listening coordinator
#   3. a mixed fleet: one spawned pipe worker beside the listener
#      (-dist-workers 1 -dist-addr) plus one TCP worker
#
# Every run gets its own fresh cache directory and every CSV must be
# byte-identical to the serial one. Each coordinator's stderr summary must
# show cells actually completed by the fleet, so the comparison cannot
# silently pass by never distributing; in the mixed run both the spawned
# worker and the TCP worker must have completed cells.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
cleanup() { rm -rf "$tmp"; }
trap cleanup EXIT

$GO build -o "$tmp/figures" ./cmd/figures
$GO build -o "$tmp/macrosim" ./cmd/macrosim

run_figures() {
    # $1 = output dir, $2 = cache dir, rest = extra flags
    out=$1 cachedir=$2
    shift 2
    "$tmp/figures" -fig 6 -quick -seed 1 \
        -patterns uniform -networks point-to-point \
        -csv "$out" -cache-dir "$cachedir" "$@" \
        >"$out.stdout" 2>"$out.stderr"
}

# require_identical <run dir> <label>
require_identical() {
    cmp -s "$tmp/serial/fig6_uniform.csv" "$1/fig6_uniform.csv" || {
        echo "dist-smoke: $2 CSV differs from serial" >&2
        diff "$tmp/serial/fig6_uniform.csv" "$1/fig6_uniform.csv" >&2 || true
        exit 1
    }
}

# require_completed <stderr file> <label>: the dist summary line proves
# cells really crossed the protocol:
#   figures: dist: N dispatched, M completed, ...
require_completed() {
    n=$(sed -n 's/.*dist: [0-9]* dispatched, \([0-9]*\) completed.*/\1/p' "$1")
    if [ -z "$n" ] || [ "$n" -eq 0 ]; then
        echo "dist-smoke: no cells completed remotely ($2)" >&2
        cat "$1" >&2
        exit 1
    fi
    echo "$n"
}

# worker_cells <stderr file> <name pattern>: the cells the summary credits
# to the first worker whose name matches, e.g. "; proc-0 7 cells (...)".
worker_cells() {
    sed -n "s/.*; \($2\) \([0-9]*\) cells.*/\2/p" "$1" | head -n 1
}

# run_with_tcp_worker <run name> <figures flags...>: runs figures with a
# listener on an ephemeral port in the background, dials one
# `macrosim -connect` worker into it once the address is announced, and
# waits for both.
run_with_tcp_worker() {
    name=$1
    shift
    run_figures "$tmp/$name" "$tmp/cache-$name" -dist-addr 127.0.0.1:0 "$@" &
    figures_pid=$!

    addr=
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/.*listening for workers on \([0-9.]*:[0-9]*\).*/\1/p' \
            "$tmp/$name.stderr" 2>/dev/null || true)
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        kill "$figures_pid" 2>/dev/null || true
        echo "dist-smoke: $name coordinator never announced its listen address" >&2
        cat "$tmp/$name.stderr" >&2 2>/dev/null || true
        exit 1
    fi

    "$tmp/macrosim" -connect "$addr" -cache-dir "$tmp/cache-$name-worker" \
        >"$tmp/$name-worker.log" 2>&1 &
    worker_pid=$!

    if ! wait "$figures_pid"; then
        kill "$worker_pid" 2>/dev/null || true
        echo "dist-smoke: $name coordinator run failed" >&2
        cat "$tmp/$name.stderr" >&2
        exit 1
    fi
    wait "$worker_pid" 2>/dev/null || true
}

run_figures "$tmp/serial" "$tmp/cache-serial"

# Pipe transport: two spawned workers.
run_figures "$tmp/pipe" "$tmp/cache-pipe" \
    -dist-workers 2 -dist-exec "$tmp/macrosim" -dist-wait 2
require_identical "$tmp/pipe" "pipe"
completed_pipe=$(require_completed "$tmp/pipe.stderr" "pipe")

# TCP transport: the coordinator listens, one remote worker dials in, and
# every cell crosses the socket.
run_with_tcp_worker tcp -dist-wait 1
require_identical "$tmp/tcp" "TCP"
completed_tcp=$(require_completed "$tmp/tcp.stderr" "TCP")

# Mixed fleet: the operator recipe for using the coordinator's own cores
# next to remote ones — -dist-workers beside -dist-addr.
run_with_tcp_worker mixed -dist-workers 1 -dist-exec "$tmp/macrosim" -dist-wait 2
require_identical "$tmp/mixed" "mixed"
completed_mixed=$(require_completed "$tmp/mixed.stderr" "mixed")
proc_cells=$(worker_cells "$tmp/mixed.stderr" 'proc-[0-9]*')
tcp_cells=$(worker_cells "$tmp/mixed.stderr" 'macrosim-[0-9]*')
if [ -z "$proc_cells" ] || [ "$proc_cells" -eq 0 ] || [ -z "$tcp_cells" ] || [ "$tcp_cells" -eq 0 ]; then
    echo "dist-smoke: mixed fleet did not use both workers (spawned: ${proc_cells:-0}, TCP: ${tcp_cells:-0})" >&2
    cat "$tmp/mixed.stderr" >&2
    exit 1
fi

echo "dist-smoke: ok (pipe: $completed_pipe cells, TCP: $completed_tcp cells, mixed: $completed_mixed cells = $proc_cells spawned + $tcp_cells TCP, all byte-identical CSV)"
