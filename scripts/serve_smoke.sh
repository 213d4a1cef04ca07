#!/usr/bin/env bash
# End-to-end smoke test for the `nvrel serve` daemon: boot it on an
# ephemeral port, wait for readiness, POST a solve, scrape /metrics, and
# save the span ring as a Perfetto-loadable trace. Artifacts land in
# artifacts/ (serve.log, metrics.prom, trace.json, solve.json) so CI
# uploads them alongside the loadgen and chaos reports.
set -euo pipefail

cd "$(dirname "$0")/.."
mkdir -p artifacts

echo "== serve smoke: build"
go build -o artifacts/nvrel ./cmd/nvrel

echo "== serve smoke: boot on an ephemeral port"
artifacts/nvrel serve -addr 127.0.0.1:0 >artifacts/serve.log 2>&1 &
serve_pid=$!
cleanup() {
    kill "$serve_pid" 2>/dev/null || true
    wait "$serve_pid" 2>/dev/null || true
}
trap cleanup EXIT

# The daemon prints "listening on http://HOST:PORT" once the listener is
# bound; poll the log for it, then poll /readyz until the warm-up solve
# has flipped readiness.
base_url=""
for _ in $(seq 1 50); do
    base_url=$(sed -n 's|^nvrel serve: listening on \(http://[^ ]*\)$|\1|p' artifacts/serve.log | head -1)
    [[ -n "$base_url" ]] && break
    sleep 0.1
done
if [[ -z "$base_url" ]]; then
    echo "serve smoke: daemon never announced its address" >&2
    cat artifacts/serve.log >&2
    exit 1
fi
echo "   daemon at $base_url"

ready=0
for _ in $(seq 1 100); do
    if curl -fsS -o /dev/null "$base_url/readyz" 2>/dev/null; then
        ready=1
        break
    fi
    sleep 0.1
done
if [[ "$ready" != 1 ]]; then
    echo "serve smoke: /readyz never turned ready" >&2
    cat artifacts/serve.log >&2
    exit 1
fi

echo "== serve smoke: POST /solve"
curl -fsS -X POST -d '{"arch":"6v"}' "$base_url/solve" >artifacts/solve.json
if ! grep -q '"reliability"' artifacts/solve.json; then
    echo "serve smoke: /solve response carries no reliability" >&2
    cat artifacts/solve.json >&2
    exit 1
fi

echo "== serve smoke: POST /solve/batch"
batch_body='{"requests":[{"arch":"6v"},{"arch":"4v"},{"arch":"6v"}]}'
curl -fsS -X POST -d "$batch_body" "$base_url/solve/batch" >artifacts/solve_batch.json
if [[ "$(grep -c '"reliability"' artifacts/solve_batch.json)" -lt 3 ]]; then
    echo "serve smoke: batch response carries fewer than 3 reliabilities" >&2
    cat artifacts/solve_batch.json >&2
    exit 1
fi
if ! grep -q '"unique_solves"' artifacts/solve_batch.json; then
    echo "serve smoke: batch response missing unique_solves" >&2
    exit 1
fi
# The same batch again must be answered from the result cache.
curl -fsS -X POST -d "$batch_body" "$base_url/solve/batch" >artifacts/solve_batch2.json
if [[ "$(grep -c '"cache": "hit"' artifacts/solve_batch2.json)" -lt 3 ]]; then
    echo "serve smoke: repeated batch was not served from cache" >&2
    cat artifacts/solve_batch2.json >&2
    exit 1
fi

echo "== serve smoke: /debug/flight carries the solve's trace"
# A fresh (uncached) solve's compute record must reach /debug/flight
# under the same trace_id the client saw in its response.
curl -fsS -X POST -d '{"arch":"4v","n":9}' "$base_url/solve" >artifacts/solve_flight.json
flight_trace=$(grep -o '"trace_id": "[0-9a-f]*"' artifacts/solve_flight.json | head -1 | grep -o '[0-9a-f]\{16\}')
if [[ -z "$flight_trace" ]]; then
    echo "serve smoke: flight-probe solve response carries no trace_id" >&2
    cat artifacts/solve_flight.json >&2
    exit 1
fi
curl -fsS "$base_url/debug/flight" >artifacts/flight_ring.json
if ! grep -q "$flight_trace" artifacts/flight_ring.json; then
    echo "serve smoke: trace $flight_trace missing from /debug/flight" >&2
    cat artifacts/flight_ring.json >&2
    exit 1
fi
echo "   trace $flight_trace present in /debug/flight"

echo "== serve smoke: scrape /metrics"
curl -fsS "$base_url/metrics" >artifacts/metrics.prom
# The scrape must show the daemon's own request counter already moving:
# the readiness polls and the solve above all passed through it.
if ! awk '$1 == "serve_request" { if ($2 + 0 > 0) found = 1 } END { exit !found }' artifacts/metrics.prom; then
    echo "serve smoke: serve_request counter missing or zero in /metrics" >&2
    grep '^serve_' artifacts/metrics.prom >&2 || true
    exit 1
fi
if ! grep -q '^serve_solve_ok ' artifacts/metrics.prom; then
    echo "serve smoke: serve_solve_ok missing from /metrics" >&2
    exit 1
fi
# The solves above must have reached the solve-latency histogram.
if ! awk '$1 == "serve_solve_seconds_count" { if ($2 + 0 > 0) found = 1 } END { exit !found }' artifacts/metrics.prom; then
    echo "serve smoke: serve_solve_seconds_count missing or zero in /metrics" >&2
    grep '^serve_solve_seconds' artifacts/metrics.prom >&2 || true
    exit 1
fi
# The first /solve {"arch":"6v"} above hit the warm-up's cache entry; a
# hit takes tens of microseconds and must land below the 1 ms bucket.
if ! awk '$1 == "serve_solve_seconds_bucket{le=\"0.0005\"}" { if ($2 + 0 >= 1) found = 1 } END { exit !found }' artifacts/metrics.prom; then
    echo "serve smoke: no solve in serve_solve_seconds_bucket{le=\"0.0005\"}; a cache hit should be there" >&2
    grep '^serve_solve_seconds' artifacts/metrics.prom >&2 || true
    exit 1
fi

echo "== serve smoke: save /traces"
curl -fsS "$base_url/traces" >artifacts/trace.json
if ! grep -q '"serve.solve"' artifacts/trace.json; then
    echo "serve smoke: trace carries no serve.solve span" >&2
    exit 1
fi

echo "== serve smoke: rejuvenation drain (-rejuvenate-requests)"
# A daemon with a 2-request rejuvenation budget must drain and exit 0 on
# its own after the second solve — the paper's software rejuvenation
# applied to the serving process, with a supervisor doing the restart.
artifacts/nvrel serve -addr 127.0.0.1:0 -rejuvenate-requests 2 \
    >artifacts/serve_rejuvenate.log 2>&1 &
rejuv_pid=$!
trap 'cleanup; kill "$rejuv_pid" 2>/dev/null || true' EXIT
rejuv_url=""
for _ in $(seq 1 100); do
    rejuv_url=$(sed -n 's|^nvrel serve: listening on \(http://[^ ]*\)$|\1|p' artifacts/serve_rejuvenate.log | head -1)
    if [[ -n "$rejuv_url" ]] && curl -fsS -o /dev/null "$rejuv_url/readyz" 2>/dev/null; then
        break
    fi
    sleep 0.1
done
curl -fsS -X POST -d '{"arch":"4v"}' "$rejuv_url/solve" >/dev/null
curl -fsS -X POST -d '{"arch":"4v"}' "$rejuv_url/solve" >/dev/null
rejuv_rc=0
wait "$rejuv_pid" || rejuv_rc=$?
if [[ "$rejuv_rc" != 0 ]]; then
    echo "serve smoke: rejuvenating daemon exited $rejuv_rc, want clean 0 for the supervisor" >&2
    cat artifacts/serve_rejuvenate.log >&2
    exit 1
fi
if ! grep -q 'rejuvenating' artifacts/serve_rejuvenate.log; then
    echo "serve smoke: no rejuvenation message in the log" >&2
    cat artifacts/serve_rejuvenate.log >&2
    exit 1
fi
trap cleanup EXIT
echo "   drained and exited 0 after 2 requests"

echo "== serve smoke: graceful shutdown on SIGTERM"
kill -TERM "$serve_pid"
rc=0
wait "$serve_pid" || rc=$?
trap - EXIT
if [[ "$rc" != 0 ]]; then
    echo "serve smoke: daemon exited $rc on SIGTERM (want graceful 0)" >&2
    cat artifacts/serve.log >&2
    exit 1
fi
if ! grep -q 'shutting down' artifacts/serve.log; then
    echo "serve smoke: no drain message in the log" >&2
    cat artifacts/serve.log >&2
    exit 1
fi

echo "serve smoke: all green"
