#!/usr/bin/env bash
# Repo health gate: vet, formatting, and the full test suite under the
# race detector. Run from anywhere; exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== portable series and class-score bodies: GOARCH=386 tests, GOARCH=arm64 vet"
# amd64 runs the series and the classifier's class scores through vector
# bodies chosen at init; these run the portable Go bodies (chunksGo and
# dot4), which every other architecture uses, and keep the non-amd64
# build compiling. A 386 binary runs natively on amd64. internal/nvp is
# left out: its E[R] bit pins (TestGoldenBitsPerRoute,
# TestKrylovBreakdownKeepsPowerOnlyBits) are amd64 pins, because math.Exp,
# which the uniformization Poisson weights call, is assembly on amd64 and
# pure Go on 386, and the two differ in the last bit for some arguments.
GOARCH=386 go test ./internal/linalg ./internal/mrgp ./internal/mlsim ./internal/percept
GOARCH=arm64 go vet ./...

echo "== perfbench module: go vet + go test"
# The benchmark is a separate Go module that imports this one; the
# root ./... pattern does not build it, so an API change that breaks it
# would otherwise surface only at the next benchmark run.
(cd perfbench && go vet ./... && go test ./...)

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go test -race ./..."
go test -race ./...

echo "== worker-pool stress: -race -count=20 ./internal/parallel"
# The pool's panic-respawn and inline-retry paths depend on goroutine
# interleaving; one pass can miss a race that twenty catch.
go test -race -count=20 ./internal/parallel

echo "== fuzz smoke: every Fuzz target for 5 s"
# The suite above only replays each target's seed corpus; this runs the
# fuzzer itself briefly on each. go test -fuzz takes one target per run.
fuzz_targets=$(grep -rH --include='*_test.go' --exclude-dir=perfbench -o '^func Fuzz[A-Za-z0-9_]*' . |
    sed 's|^\(.*\)/[^/]*_test.go:func \(.*\)$|\1 \2|')
if [[ -z "$fuzz_targets" ]]; then
    echo "fuzz smoke: no Fuzz targets found" >&2
    exit 1
fi
while read -r pkg name; do
    go test -run '^$' -fuzz "^${name}\$" -fuzztime 5s "$pkg" </dev/null
done <<<"$fuzz_targets"

echo "== no-alloc benchmark guards (-benchtime=1x)"
# Every benchmark named *NoAlloc must report 0 allocs/op, among them the
# event simulator's steady state: BenchmarkRearmChurnNoAlloc (des) and
# BenchmarkPerceptStepNoAlloc (percept), a ziggurat normal draw
# (BenchmarkNormNoAlloc, des) and a pooled voting round
# (BenchmarkRoundNoAlloc, bftvote).
bench_out=$(go test -run '^$' -bench 'NoAlloc' -benchmem -benchtime=1x ./...)
echo "$bench_out"
if ! echo "$bench_out" | awk '/allocs\/op/ { if ($(NF-1)+0 != 0) { print "nonzero allocs: " $0 > "/dev/stderr"; bad = 1 } } END { exit bad }'; then
    echo "no-alloc guard: a NoAlloc benchmark allocated; see lines above" >&2
    exit 1
fi

echo "== regression gate: per-experiment allocation and wall time (no -race)"
# TestSweepRegressionGate bounds each paper experiment at 1 and 2 workers:
# allocation at most 1.5x its measured ceiling, wall time at most 25x its
# recorded baseline (a cross-machine sanity bound, not percent-level
# drift). It also runs inside the -race suite above; this run measures
# the uninstrumented build. The warm-start gate (TestWarmStartGate in
# internal/nvp) counts iterations, not time, so the -race suite covers it.
go test -count=1 -run '^TestSweepRegressionGate$' .

echo "== serve daemon smoke test"
./scripts/serve_smoke.sh

echo "== loadgen gate: latency, cache hit rate, speedup, SLO burn"
# A repeat-heavy mix against a self-served daemon: cached answers must be
# at least 10x faster than cold solves at the median, with zero errors.
# The p99 bound is a cross-machine sanity ceiling (like -time-ratio
# above), not a percent-level SLO; the SLO gates assert the burn-rate
# math on a run that must have zero errors and nothing near 5s.
go run ./cmd/nvrel loadgen -self-serve -duration 5s -concurrency 3 \
    -mix 0.9,0.07,0.03 -max-p99 5s -max-error-rate 0 -min-hit-rate 0.5 \
    -min-p50-speedup 10 -slo-availability 0.999 -slo-p99 5s \
    -o artifacts/loadgen.json
if ! grep -q '"hit_speedup_p50"' artifacts/loadgen.json; then
    echo "loadgen gate: artifact missing hit_speedup_p50" >&2
    exit 1
fi
if ! grep -q '"slo"' artifacts/loadgen.json; then
    echo "loadgen gate: artifact missing slo block" >&2
    exit 1
fi

echo "== shadow gate: N-version self-check at rate 1.0 + audit replay"
# Every solve of a self-served burst is re-solved on an independent
# solver rung (DESIGN.md section 14): at least one comparison must be
# sampled, none may diverge, and the burst must stay inside the same p99
# ceiling as the loadgen gate above. The flight-recorder dump is then
# replayed through `nvrel audit`, whose -max-diverge-rate 0 gate exits
# non-zero on any divergence.
go run ./cmd/nvrel loadgen -self-serve -duration 3s -concurrency 2 \
    -mix 0.5,0.3,0.2 -shadow-rate 1.0 -min-shadow-sampled 1 \
    -max-shadow-diverge 0 -max-p99 5s -max-error-rate 0 \
    -flight-out artifacts/flight.json -o artifacts/shadow_loadgen.json
if ! grep -q '"sampled"' artifacts/shadow_loadgen.json; then
    echo "shadow gate: loadgen report missing shadow block" >&2
    exit 1
fi
go run ./cmd/nvrel audit -flight artifacts/flight.json \
    -max-diverge-rate 0 -o artifacts/audit.json
if ! grep -q '"diverge_rate": 0' artifacts/audit.json; then
    echo "shadow gate: audit report disagrees with its exit status" >&2
    exit 1
fi

echo "== chaos gate: fault plan over the standard sweeps + solver-metrics artifact"
go run ./cmd/nvrel -metrics artifacts/metrics.json chaos -steps 2 -o artifacts/chaos.json
# The command already exits non-zero when a fault escapes containment;
# the grep is a belt-and-braces check that the report agrees.
if ! grep -q '"silent_wrong": 0' artifacts/chaos.json; then
    echo "chaos gate: report disagrees with exit status" >&2
    exit 1
fi
# The snapshot must carry live solver counters from the two sparse
# workloads: GS sweeps, restamps and plan memo hits (model-cache sweeps),
# a worker-utilization reading from the parallel pool, and the warm-start
# registry's hits, inserts and accepted seeds.
for metric in linalg.gs.sweeps petri.restamp petri.plan.memo_hit parallel.pool.utilization \
    warmstart.lookup.hit warmstart.insert linalg.seed.warm; do
    if ! grep -q "\"$metric\":" artifacts/metrics.json; then
        echo "metrics artifact: $metric missing" >&2
        exit 1
    fi
    if grep -Eq "\"$metric\": 0,?$" artifacts/metrics.json; then
        echo "metrics artifact: $metric is zero" >&2
        exit 1
    fi
done

echo "check.sh: all green"
