#!/usr/bin/env sh
# ci.sh — the full local verification gate for Panoptes.
#
# Runs formatting, vet, build and the test suite, then the race detector
# over the packages with the hottest concurrency (the obs registry, the
# MITM proxy and the capture store). Exits non-zero on the first failure.
#
# Usage: scripts/ci.sh   (from the repository root)
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race (obs, mitm, connpool, capture, netsim, device, ebpfsim, vendorsim, websim: proxy conn handlers + idle pools + flow recycling + shared pipe segments + lock-free per-conn byte hooks)"
go test -race ./internal/obs/... ./internal/mitm/... ./internal/connpool/... ./internal/capture/... \
    ./internal/netsim/... ./internal/device/... ./internal/ebpfsim/... ./internal/vendorsim/... ./internal/websim/...

echo "==> go test -race (webengine: concurrent sub-resource fetches)"
go test -race ./internal/webengine/...

echo "==> go test -race (core, leak, pipeline, analysis, fabric: concurrent scheduler + streaming analyzers)"
# The analyzers and the fabric shipper observe sealed attempts from the
# campaign goroutine while proxy goroutines commit untagged flows. -p 1
# runs the packages one at a time: the fabric's lease janitor expires
# leases on wall-clock silence, and competing race-instrumented packages
# can starve a worker's heartbeat pump past StaleAfter.
go test -race -p 1 ./internal/core/... ./internal/leak/... ./internal/pipeline/... \
    ./internal/analysis/... ./internal/fabric/...

echo "==> go test -race (match, pii: shared automaton + dictionary dispatch)"
go test -race ./internal/match/... ./internal/pii/...

echo "==> go test -race (sink, breaker: export dispatchers + shared breakers)"
go test -race ./internal/sink/... ./internal/breaker/...

echo "==> benchmark module smoke (cd bench && go test ./...)"
# bench/ is its own Go module, so the root go test ./... never builds it.
(cd bench && go test ./...)

echo "==> fault-seed chaos smoke (10% fault rate campaign under -race, all transports)"
# A seeded chaos campaign over every data-plane transport (the fleet
# includes h2, WebSocket and DoH speakers) must complete with every
# browser intact and
# every failed visit classified, and the determinism keystones must hold
# across straight/resumed runs at parallelism 1 and 8 — including the
# data-plane contract: warm (resumed TLS + pooled conns, with injected
# pool poison) campaigns byte-identical to the cold full-handshake path,
# and the fabric contract: 1/2/8-worker topologies, including the
# worker-kill chaos variant, byte-identical to the single-process run.
# -p 1 for the same reason as the streaming-analyzers step: the fabric
# keystone's lease janitor runs on wall-clock StaleAfter.
go test -race -p 1 -count=1 -run 'TestChaosCampaign|TestFaultCampaignDeterminism|TestDataPlaneDeterminism|TestFabricDeterminism' \
    ./internal/core/ ./internal/faultsim/ ./internal/fabric/

echo "==> population engine gate (determinism keystone + 10k-user bounded-residency smoke under -race)"
# The population keystone pins the analyses byte-identical across
# synthesis parallelism 1/8 and pause/resume; the bounded-residency
# smoke runs 10k users under retain=none and requires zero resident
# flows and head-sampling under its cap.
go test -race -count=1 -run 'TestPopulationDeterminism|TestPopulationBoundedResidency' \
    ./internal/popsim/

# The benchmark smokes below only check that every benchmark still runs;
# their single samples are printed, not recorded. The committed
# BENCH_*.json files are frozen historical samples; the measured,
# repeated baseline is panoptes-bench (bash bench/run.sh).
echo "==> benchmark smoke: crawl scaling (visits/sec, parallelism 1 vs N, warm vs cold data plane)"
go test -run '^$' -bench CrawlScaling -benchtime=1x .

echo "==> benchmark smoke: leak scan scaling + mitm body allocs"
# 100 iterations, not 1: the flow-record and body pools only show their
# steady-state allocation profile once warm (a 1x run measures pool
# cold-start, which charges buildFlow the one-time Flow/Headers/Body
# allocations it exists to amortise).
go test -run '^$' -bench 'LeakScanScaling|MitmBodyAlloc' -benchmem -benchtime=100x \
    ./internal/leak/ ./internal/mitm/

echo "==> benchmark smoke: pipeline observe (the analysis suite over a fixed flow mix, ns/flow + allocs/op)"
go test -run '^$' -bench PipelineObserve -benchmem -benchtime=100x ./internal/analysis/

echo "==> benchmark smoke: fabric scaling (visits/sec at 1/2/8 workers + worker-kill reclamation)"
go test -run '^$' -bench FabricScaling -benchtime=1x ./internal/fabric/

echo "==> benchmark smoke: sink throughput (flows/sec into a slow sink, queue bound, allocs/op)"
go test -run '^$' -bench SinkThroughput -benchmem -benchtime=1x ./internal/sink/

echo "==> benchmark smoke: population scaling (sessions/sec + peak RSS at 10k/100k/1M users)"
# The 1M point is the long pole (a few minutes of one-core wall time).
go test -run '^$' -bench PopulationScaling -benchtime=1x -timeout 30m ./internal/popsim/

echo "==> ci.sh: all checks passed"
