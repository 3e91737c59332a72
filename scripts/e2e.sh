#!/bin/sh
# e2e.sh — build shored + shorecli + shorectl and run a loopback
# end-to-end cell: a real TCP page server, client peers driving the
# paper's workloads over actual sockets — both with observability on —
# then the shorectl collector merging the fleet's snapshots (the server's
# live /debug/obs/snapshot endpoint plus the clients' snapshot files)
# into one Perfetto trace and critical-path table, and finally a graceful
# SIGTERM shutdown (drain + WAL force). shorectl runs as a gate: the
# merged trace must join spans across the processes and the critical path
# must attribute time to the network, and any snapshot that fails to
# decode fails the cell.
# This script IS the CI entrypoint for the e2e-tcp job; run it locally
# for the same coverage.
#
# The shards mode runs the same loopback cell against a 2-shard fleet:
# two shored processes each serving half the page space, one fleet-aware
# shorecli routing each page to its owning shard and running cross-shard
# commits through 2PC, and shorectl gating on fleet completeness
# (-require-processes: exactly 2 servers + 2 client processes). The
# shardcrash mode is the fleet fault cell: a client is SIGKILLed inside a
# commit hold between prepare and decide, one shard is SIGKILLed mid-2PC,
# and the survivor must presume abort, reclaim the prepared transaction's
# locks, and keep serving — its shutdown line must report zero
# prepared-undecided transactions.
#
# usage: scripts/e2e.sh smoke
#            quick local check: PS-AA, small tx counts, no race detector
#        scripts/e2e.sh matrix <protocol>
#            one CI matrix cell: HOTCOLD and HOTSPOT against one server
#        scripts/e2e.sh shards [protocol]
#            2-shard fleet cell: cross-shard 2PC + fleet-completeness gate
#        scripts/e2e.sh shardcrash [protocol]
#            2-shard fault cell: kill one shard mid-2PC, assert
#            presumed-abort reclaim on the survivor
#
# environment:
#   E2E_RACE=1      build both binaries with -race (CI sets this)
#   E2E_OUT=dir     artifact directory: server log, Perfetto trace, and
#                   critical-path breakdown land here (default ./e2e-out)
#   E2E_TXS=n       transactions per application (default 30)
set -eu

mode=${1:-smoke}
case "$mode" in
smoke)
    protocol=PS-AA
    ;;
matrix)
    [ $# -ge 2 ] || { echo "usage: $0 matrix <protocol>" >&2; exit 2; }
    protocol=$2
    ;;
shards | shardcrash)
    protocol=${2:-PS-AA}
    ;;
*)
    echo "usage: $0 smoke | matrix <protocol> | shards [protocol] | shardcrash [protocol]" >&2
    exit 2
    ;;
esac

out=${E2E_OUT:-e2e-out}
txs=${E2E_TXS:-30}
mkdir -p "$out"

buildflags=""
if [ "${E2E_RACE:-}" = "1" ]; then
    buildflags="-race"
fi

echo "== building shored, shorecli, and shorectl ${buildflags:+($buildflags)}"
# shellcheck disable=SC2086 # buildflags is intentionally word-split
go build $buildflags -o "$out/shored" ./cmd/shored
# shellcheck disable=SC2086
go build $buildflags -o "$out/shorecli" ./cmd/shorecli
# shellcheck disable=SC2086
go build $buildflags -o "$out/shorectl" ./cmd/shorectl

# wait_file <file> <pid> <log>: wait for a process to publish an address
# file, failing fast (with its log) if it exits first.
wait_file() {
    wf_i=0
    while [ ! -s "$1" ]; do
        wf_i=$((wf_i + 1))
        if [ "$wf_i" -gt 100 ]; then
            echo "$3: address file $1 never appeared; log:" >&2
            cat "$3" >&2
            exit 1
        fi
        kill -0 "$2" 2>/dev/null || {
            echo "$3: process exited early; log:" >&2
            cat "$3" >&2
            exit 1
        }
        sleep 0.1
    done
}

if [ "$mode" = "shards" ] || [ "$mode" = "shardcrash" ]; then
    pages=1200
    half=$((pages / 2))
    # The fault cell shortens the RPC timeout so the survivor's in-doubt
    # resolver (threshold 16x the RPC timeout) fires within a few seconds.
    rpc_timeout=500ms
    [ "$mode" = "shardcrash" ] && rpc_timeout=100ms

    rm -f "$out"/s1.addr "$out"/s2.addr "$out"/s1.metrics "$out"/s2.metrics

    # Shard 2 starts first so shard 1 can be given its address via -peers:
    # the in-doubt resolver on shard 1 may need to ask a coordinator that
    # lives on shard 2.
    echo "== starting shored shard 2/2 ($protocol, rpc-timeout $rpc_timeout)"
    "$out/shored" -shard 2/2 -pages "$pages" -addr 127.0.0.1:0 -addr-file "$out/s2.addr" \
        -protocol "$protocol" -rpc-timeout "$rpc_timeout" \
        -obs -metrics 127.0.0.1:0 -metrics-addr-file "$out/s2.metrics" \
        >"$out/shored-s2.log" 2>&1 &
    s2_pid=$!
    stop_fleet() {
        for pid in "${s1_pid:-}" "${s2_pid:-}"; do
            [ -n "$pid" ] || continue
            if kill -0 "$pid" 2>/dev/null; then
                kill -TERM "$pid" 2>/dev/null || true
                wait "$pid" 2>/dev/null || true
            fi
        done
    }
    trap stop_fleet EXIT
    wait_file "$out/s2.addr" "$s2_pid" "$out/shored-s2.log"
    s2_addr=$(cat "$out/s2.addr")

    echo "== starting shored shard 1/2 (peers srv2=$s2_addr)"
    "$out/shored" -shard 1/2 -pages "$pages" -addr 127.0.0.1:0 -addr-file "$out/s1.addr" \
        -peers "srv2=$s2_addr" \
        -protocol "$protocol" -rpc-timeout "$rpc_timeout" \
        -obs -metrics 127.0.0.1:0 -metrics-addr-file "$out/s1.metrics" \
        >"$out/shored-s1.log" 2>&1 &
    s1_pid=$!
    wait_file "$out/s1.addr" "$s1_pid" "$out/shored-s1.log"
    s1_addr=$(cat "$out/s1.addr")
    wait_file "$out/s1.metrics" "$s1_pid" "$out/shored-s1.log"
    wait_file "$out/s2.metrics" "$s2_pid" "$out/shored-s2.log"
    s1_metrics=$(cat "$out/s1.metrics")
    s2_metrics=$(cat "$out/s2.metrics")
    echo "== fleet up: srv1 $s1_addr, srv2 $s2_addr"

    if [ "$mode" = "shards" ]; then
        echo "== HOTCOLD workload across both shards (cross-shard 2PC)"
        "$out/shorecli" -addr "$s1_addr,$s2_addr" -pages "$pages" -protocol "$protocol" \
            -workload hotcold -apps 2 -txs "$txs" -name-prefix c \
            -obs -snapshot-out "$out/shorecli-c.snap"

        echo "== HOTSPOT workload across both shards"
        "$out/shorecli" -addr "$s1_addr,$s2_addr" -pages "$pages" -protocol "$protocol" \
            -workload hotspot -apps 2 -txs "$txs" -name-prefix d \
            -obs -snapshot-out "$out/shorecli-d.snap"

        # Fleet completeness is part of the gate: the merged view must
        # contain exactly 2 server + 2 client processes, join spans across
        # processes, and attribute critical-path time to the network.
        echo "== shorectl: merge fleet snapshots (2 endpoints + 2 files, require 4 processes)"
        "$out/shorectl" -endpoints "$s1_metrics,$s2_metrics" \
            -files "$out/shorecli-c.snap,$out/shorecli-d.snap" \
            -trace-out "$out/fleet-trace.json" -critpath-out "$out/fleet-critpath.txt" \
            -require-processes 4 -require-cross-flows 1 -require-network \
            >"$out/shorectl.txt"
        cat "$out/shorectl.txt"
        grep -q "2pc_prepares" "$out/shorectl.txt" || {
            echo "no cross-shard prepares in the merged counters; the fleet never ran 2PC" >&2
            exit 1
        }

        echo "== graceful fleet shutdown"
        trap - EXIT
        rc=0
        kill -TERM "$s1_pid" && wait "$s1_pid" || rc=$?
        [ "$rc" -eq 0 ] || { echo "srv1 exited $rc" >&2; cat "$out/shored-s1.log" >&2; exit 1; }
        kill -TERM "$s2_pid" && wait "$s2_pid" || rc=$?
        [ "$rc" -eq 0 ] || { echo "srv2 exited $rc" >&2; cat "$out/shored-s2.log" >&2; exit 1; }
        for log in "$out/shored-s1.log" "$out/shored-s2.log"; do
            grep -q "prepared-undecided transactions: 0" "$log" || {
                echo "$log: in-doubt residue after a clean fleet shutdown:" >&2
                cat "$log" >&2
                exit 1
            }
        done
        echo "== e2e shards OK ($protocol, 2 shards); merged fleet artifacts in $out/"
        exit 0
    fi

    # --- shardcrash: kill one shard and the committing client mid-2PC ---
    # No healthy warmup run here: the 2pc_prepares counters must stay zero
    # until the wedged commit prepares, so the poll below unambiguously
    # observes ITS prepare records landing on both shards.

    # A single all-write uniform transaction virtually always spans both
    # shards; the commit hold parks it between prepare and decide.
    echo "== wedging a cross-shard commit (60s hold between prepare and decide)"
    "$out/shorecli" -addr "$s1_addr,$s2_addr" -pages "$pages" -protocol "$protocol" \
        -workload uniform -write-prob 1 -apps 1 -txs 1 -commit-hold 60s -name-prefix w \
        >"$out/shorecli-w.log" 2>&1 &
    cli_pid=$!

    # Wait until BOTH shards hold a prepared record: only then is the
    # client provably inside the hold, so killing it strands an in-doubt
    # transaction rather than racing a prepare-phase failure.
    echo "== waiting for prepare records on both shards"
    i=0
    until "$out/shorectl" -endpoints "$s1_metrics" 2>/dev/null | grep -q "2pc_prepares" &&
        "$out/shorectl" -endpoints "$s2_metrics" 2>/dev/null | grep -q "2pc_prepares"; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "prepare records never appeared on both shards" >&2
            cat "$out/shorecli-w.log" >&2
            exit 1
        fi
        kill -0 "$cli_pid" 2>/dev/null || {
            echo "wedged client exited before both prepares landed; log:" >&2
            cat "$out/shorecli-w.log" >&2
            exit 1
        }
        sleep 0.2
    done

    echo "== SIGKILL shard 2 (crash mid-2PC), then the wedged client"
    kill -KILL "$s2_pid" 2>/dev/null || true
    wait "$s2_pid" 2>/dev/null || true
    s2_pid=""
    kill -KILL "$cli_pid" 2>/dev/null || true
    wait "$cli_pid" 2>/dev/null || true

    # The survivor's resolver must age out the in-doubt transaction
    # (threshold 16 x 100ms), fail to reach any coordinator on the dead
    # shard, presume abort, and release the stranded locks.
    echo "== waiting for presumed-abort reclaim on the survivor"
    i=0
    until "$out/shorectl" -endpoints "$s1_metrics" 2>/dev/null | grep -q "2pc_presumed_aborts"; do
        i=$((i + 1))
        if [ "$i" -gt 120 ]; then
            echo "survivor never presumed abort; srv1 log:" >&2
            cat "$out/shored-s1.log" >&2
            exit 1
        fi
        sleep 0.25
    done

    echo "== survivor still serves its shard (single-server client)"
    "$out/shorecli" -addr "$s1_addr" -server-name srv1 -volume 1 -pages "$half" \
        -protocol "$protocol" -workload hotcold -apps 1 -txs 10 -name-prefix z

    echo "== graceful survivor shutdown"
    trap - EXIT
    rc=0
    kill -TERM "$s1_pid" && wait "$s1_pid" || rc=$?
    [ "$rc" -eq 0 ] || { echo "srv1 exited $rc" >&2; cat "$out/shored-s1.log" >&2; exit 1; }
    grep -q "prepared-undecided transactions: 0" "$out/shored-s1.log" || {
        echo "survivor shut down with in-doubt residue:" >&2
        cat "$out/shored-s1.log" >&2
        exit 1
    }
    grep -q "2pc_presumed_aborts" "$out/shored-s1.log" || {
        echo "survivor final counters missing the presumed-abort reclaim:" >&2
        cat "$out/shored-s1.log" >&2
        exit 1
    }
    echo "== e2e shardcrash OK ($protocol); survivor reclaimed the in-doubt transaction"
    exit 0
fi

addrfile=$out/shored.addr
metricsfile=$out/shored.metrics
rm -f "$addrfile" "$metricsfile"

echo "== starting shored ($protocol, obs on)"
"$out/shored" -addr 127.0.0.1:0 -addr-file "$addrfile" \
    -protocol "$protocol" \
    -obs -metrics 127.0.0.1:0 -metrics-addr-file "$metricsfile" \
    -traceout "$out/shored-trace.json" -critpath "$out/shored-critpath.txt" \
    >"$out/shored.log" 2>&1 &
server_pid=$!

stop_server() {
    if kill -0 "$server_pid" 2>/dev/null; then
        kill -TERM "$server_pid" 2>/dev/null || true
        wait "$server_pid" 2>/dev/null || true
    fi
}
trap stop_server EXIT

# Wait for the ephemeral port to be bound and published.
i=0
while [ ! -s "$addrfile" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "shored never published its address; log:" >&2
        cat "$out/shored.log" >&2
        exit 1
    fi
    kill -0 "$server_pid" 2>/dev/null || {
        echo "shored exited early; log:" >&2
        cat "$out/shored.log" >&2
        exit 1
    }
    sleep 0.1
done
addr=$(cat "$addrfile")
echo "== shored listening on $addr"

# The introspection endpoint binds right after the main listener; wait
# for its address too so shorectl has something to scrape.
i=0
while [ ! -s "$metricsfile" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "shored never published its introspection address; log:" >&2
        cat "$out/shored.log" >&2
        exit 1
    fi
    sleep 0.1
done
metrics_addr=$(cat "$metricsfile")
echo "== shored introspection on $metrics_addr"

echo "== HOTCOLD workload over TCP (obs on, snapshot on exit)"
"$out/shorecli" -addr "$addr" -protocol "$protocol" \
    -workload hotcold -apps 2 -txs "$txs" -name-prefix c \
    -obs -snapshot-out "$out/shorecli-c.snap"

echo "== HOTSPOT workload over TCP (obs on, snapshot on exit)"
"$out/shorecli" -addr "$addr" -protocol "$protocol" \
    -workload hotspot -apps 2 -txs "$txs" -name-prefix d \
    -obs -snapshot-out "$out/shorecli-d.snap"

# Collect the fleet while the server is still live: scrape shored's
# snapshot endpoint, read both client snapshot files, merge, and gate.
# A snapshot that fails to decode, a merged trace with no cross-process
# span joins, or a critical path with no network time all fail the cell.
echo "== shorectl: merge fleet snapshots (1 endpoint + 2 files)"
"$out/shorectl" -endpoints "$metrics_addr" \
    -files "$out/shorecli-c.snap,$out/shorecli-d.snap" \
    -trace-out "$out/fleet-trace.json" -critpath-out "$out/fleet-critpath.txt" \
    -require-cross-flows 1 -require-network \
    >"$out/shorectl.txt"
cat "$out/shorectl.txt"

echo "== graceful shutdown (drain + WAL force)"
kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
trap - EXIT
if [ "$rc" -ne 0 ]; then
    echo "shored exited $rc; log:" >&2
    cat "$out/shored.log" >&2
    exit 1
fi
grep -q "final counters" "$out/shored.log" || {
    echo "shored shutdown summary missing; log:" >&2
    cat "$out/shored.log" >&2
    exit 1
}

echo "== e2e OK ($protocol); merged fleet trace, critpath, and logs in $out/"
