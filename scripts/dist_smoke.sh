#!/bin/sh
# dist_smoke.sh — end-to-end smoke test for distributed sweep execution,
# run by `make dist-smoke` (part of `make check`).
#
# Builds cmd/figures and the cmd/macrosim worker binary, runs a tiny
# figure-6 panel (uniform pattern, point-to-point network, quick windows)
# serially as the reference, then three distributed ways:
#
#   1. two spawned pipe workers at depth 1 (stop-and-wait)
#   2. two spawned pipe workers at depth 8 (the pipelined credit window)
#   3. one TCP worker (`macrosim -connect`) against a listening coordinator
#
# Every run gets its own fresh cache directory and every CSV must be
# byte-identical to the serial one. Each coordinator's stderr summary must
# show cells actually completed by the fleet, so the comparison cannot
# silently pass by never distributing.
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

run_figures "$tmp/serial" "$tmp/cache-serial"

# Pipe transport: spawned workers at both ends of the depth axis.
for depth in 1 8; do
    run_figures "$tmp/dist-d$depth" "$tmp/cache-d$depth" \
        -dist-workers 2 -dist-exec "$tmp/macrosim" -dist-wait 2 \
        -dist-depth "$depth"
    require_identical "$tmp/dist-d$depth" "depth-$depth"
    done_cells=$(require_completed "$tmp/dist-d$depth.stderr" "depth $depth")
    # The summary's per-worker lines pin that the fleet really negotiated
    # the requested window, not a silently clamped one.
    grep -q "depth $depth" "$tmp/dist-d$depth.stderr" || {
        echo "dist-smoke: summary does not show negotiated depth $depth" >&2
        cat "$tmp/dist-d$depth.stderr" >&2
        exit 1
    }
    eval "completed_d$depth=\$done_cells"
done

# TCP transport: the coordinator listens on an ephemeral port, a remote
# worker dials in. -dist-local -1 turns local steal slots off so every cell
# demonstrably crosses the socket.
run_figures "$tmp/dist-tcp" "$tmp/cache-tcp" \
    -dist-addr 127.0.0.1:0 -dist-wait 1 -dist-local -1 -dist-depth 8 &
figures_pid=$!

addr=
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*listening for workers on \([0-9.]*:[0-9]*\).*/\1/p' \
        "$tmp/dist-tcp.stderr" 2>/dev/null || true)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    kill "$figures_pid" 2>/dev/null || true
    echo "dist-smoke: coordinator never announced its listen address" >&2
    cat "$tmp/dist-tcp.stderr" >&2 2>/dev/null || true
    exit 1
fi

"$tmp/macrosim" -connect "$addr" -cache-dir "$tmp/cache-tcp-worker" \
    >"$tmp/worker-tcp.log" 2>&1 &
worker_pid=$!

if ! wait "$figures_pid"; then
    kill "$worker_pid" 2>/dev/null || true
    echo "dist-smoke: TCP coordinator run failed" >&2
    cat "$tmp/dist-tcp.stderr" >&2
    exit 1
fi
wait "$worker_pid" 2>/dev/null || true

require_identical "$tmp/dist-tcp" "TCP"
completed_tcp=$(require_completed "$tmp/dist-tcp.stderr" "TCP")

echo "dist-smoke: ok (pipe depth 1: $completed_d1 cells, depth 8: $completed_d8 cells, TCP: $completed_tcp cells, all byte-identical CSV)"
